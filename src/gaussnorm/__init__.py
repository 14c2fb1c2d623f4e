"""Schatten p-norms of Gaussian states and bosonic Gaussian channels.

Covariance-matrix representations, the closed forms Tr rho^p and
||Phi||_{p->p} = |det K|^(1/p - 1) for invertible K, Gibbs-family
convergence certification, and an independent truncated Fock-space oracle.
"""

from .channels import (
    ConvergenceReport,
    DivergenceFit,
    GaussianChannel,
    ScalingFit,
    apply_channel,
    compose,
    divergence_exponent,
    norm_pp,
    ratio_sequence,
    scaling_exponent,
    upper_bound_check,
    validate_channel,
)
from .config import ChannelSpec, SweepSpec, load_config, parse_config, serialize_config
from .states import (
    GaussianState,
    GibbsFamily,
    char_function,
    f_p,
    g_p,
    gibbs_asymptotic,
    gibbs_state,
    power_char_function,
    power_cov,
    schatten_norm,
    tr_rho_p,
    validate_state,
)
from .symplectic import (
    SymplecticSpace,
    check_psd_hermitian,
    standard_form,
    symplectic_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "ConvergenceReport",
    "DivergenceFit",
    "GaussianChannel",
    "GaussianState",
    "GibbsFamily",
    "ScalingFit",
    "SweepSpec",
    "SymplecticSpace",
    "apply_channel",
    "char_function",
    "check_psd_hermitian",
    "compose",
    "divergence_exponent",
    "f_p",
    "g_p",
    "gibbs_asymptotic",
    "gibbs_state",
    "load_config",
    "norm_pp",
    "parse_config",
    "power_char_function",
    "power_cov",
    "ratio_sequence",
    "scaling_exponent",
    "schatten_norm",
    "serialize_config",
    "standard_form",
    "symplectic_spectrum",
    "tr_rho_p",
    "upper_bound_check",
    "validate_channel",
    "validate_state",
]
