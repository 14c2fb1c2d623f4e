"""Config-file schema for the CLI: channel and sweep specs as flat JSON.

One file holds one channel spec and, optionally, one sweep spec:

    {
      "channel": {"name": "attenuator-0.5", "s": 1,
                  "K": [...4 s^2 reals, row-major...],
                  "l": [...2 s reals...],
                  "mu": [...4 s^2 reals, row-major...]},
      "sweep":   {"epsilon": [...], "p": 2.0, "q": null,
                  "beta_start": 0.1, "beta_stop": 1e-05,
                  "points": 17, "output_path": "report.csv"}
    }

Matrices are row-major flat lists of numbers so the files stay diffable.  Parse,
length and value-type errors raise ConfigError (CLI exit code 2); physics-level
validation failures surface later through validate_channel (exit code 1).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import GaussianChannel, validate_channel
from .errors import ConfigError
from .states import GibbsFamily
from .symplectic import SymplecticSpace, standard_form


def _all_of(kind, values) -> bool:
    # bool is a number to Python, but true is neither a count nor a matrix entry;
    # one test per distinct type, since a matrix holds thousands of entries
    return all(issubclass(t, kind) and t is not bool for t in set(map(type, values)))


@dataclass(frozen=True)
class ChannelSpec:
    """Flat-list form of a Gaussian channel, as stored in config files."""

    s: int
    K: list[float]
    l: list[float]
    mu: list[float]
    name: str = ""

    def __post_init__(self):
        if not (_all_of(numbers.Integral, [self.s]) and self.s >= 1):
            raise ConfigError(f"mode count s must be an integer >= 1, got {self.s!r}")
        n = 2 * self.s
        for label, values, want in (("K", self.K, n * n), ("l", self.l, n), ("mu", self.mu, n * n)):
            if len(values) != want:
                raise ConfigError(f"{label} must have {want} entries for s={self.s}, got {len(values)}")
            if not _all_of(numbers.Real, values):
                raise ConfigError(f"{label} entries must be numbers")

    def space(self) -> SymplecticSpace:
        return standard_form(self.s)

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """K, l and mu as float arrays of shapes (2s, 2s), (2s,) and (2s, 2s)."""
        n = 2 * self.s
        return (
            np.array(self.K, dtype=float).reshape(n, n),
            np.array(self.l, dtype=float),
            np.array(self.mu, dtype=float).reshape(n, n),
        )

    def to_channel(self) -> GaussianChannel:
        return validate_channel(*self.matrices(), self.space())


@dataclass(frozen=True)
class SweepSpec:
    """Beta-sweep parameters: Gibbs family, exponents, grid, and output path.

    The only source of the CLI's sweep defaults and checks; command-line
    values replace fields through ``dataclasses.replace``.
    """

    epsilon: list[float] = field(default_factory=list)  # empty means identity
    p: float = 2.0
    q: float | None = None
    beta_start: float = 1e-1
    beta_stop: float = 1e-5
    points: int = 17
    output_path: str = "report.csv"

    def __post_init__(self):
        if not (_all_of(numbers.Real, [self.p]) and 1.0 <= self.p < math.inf):
            raise ConfigError(f"sweep exponent p must lie in [1, inf), got {self.p}")
        if not (self.q is None or _all_of(numbers.Real, [self.q])):
            raise ConfigError(f"sweep exponent q must be a number or null, got {self.q!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"sweep output_path must be a string, got {self.output_path!r}")
        betas = [self.beta_start, self.beta_stop]
        if not (_all_of(numbers.Real, betas) and math.inf > self.beta_start > self.beta_stop > 0.0):
            raise ConfigError(
                f"need beta_start > beta_stop > 0, both finite, got {self.beta_start}, {self.beta_stop}"
            )
        if not (_all_of(numbers.Integral, [self.points]) and self.points >= 3):
            raise ConfigError(f"sweep points must be an integer >= 3, got {self.points!r}")
        if not _all_of(numbers.Real, self.epsilon or ()):  # null means identity
            raise ConfigError("epsilon entries must be numbers")

    def epsilon_matrix(self, s: int) -> np.ndarray:
        n = 2 * s
        if not self.epsilon:
            return np.eye(n)
        if len(self.epsilon) != n * n:
            raise ConfigError(f"epsilon must have {n * n} entries for s={s}, got {len(self.epsilon)}")
        return np.array(self.epsilon, dtype=float).reshape(n, n)

    def family(self, space: SymplecticSpace) -> GibbsFamily:
        return GibbsFamily(space=space, epsilon=self.epsilon_matrix(space.s))


def _coerce(cls, data: dict, label: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{label} section must be an object")
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {label} section: {exc}") from exc


def parse_config(text: str) -> tuple[ChannelSpec, SweepSpec | None]:
    """Parse a config document; returns the channel spec and the optional sweep spec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "channel" not in data:
        raise ConfigError('config must be an object with a "channel" section')
    channel = _coerce(ChannelSpec, data["channel"], "channel")
    sweep = _coerce(SweepSpec, data["sweep"], "sweep") if data.get("sweep") is not None else None
    return channel, sweep


def serialize_config(channel: ChannelSpec, sweep: SweepSpec | None = None) -> str:
    """Deterministic JSON rendering; parse(serialize(...)) is the identity."""
    doc = {"channel": asdict(channel)}
    if sweep is not None:
        doc["sweep"] = asdict(sweep)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_config(path: str) -> tuple[ChannelSpec, SweepSpec | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
