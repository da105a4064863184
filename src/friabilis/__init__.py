"""friabilis: exact divisor distributions on smooth integers.

The package computes, at desk scale, the exact law of the uniformly random
log-divisor of a smooth integer, its Gaussian and saddle-point tail
approximations, counting estimates for smooth integers themselves, and
batch experiment drivers that measure how tight the approximations run.
"""

from friabilis._backend import get_backend
from friabilis.arith import (
    Factorization,
    SmoothSet,
    enumerate_smooth,
    factorize,
    psi_exact,
    psi_recursive,
    sieve_primes,
)
from friabilis.dickman import RhoTable, dickman_rho, psi_dickman_estimate
from friabilis.divdist import (
    DivisorLaw,
    DivisorMoments,
    additive_fk,
    exact_law,
    exact_upper_tail,
    model_mean_additive,
    moments,
    nudge_off_atom,
)
from friabilis.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    FriabilisError,
    ResourceLimitError,
)
from friabilis.experiments import (
    ArcsineRow,
    AverageRow,
    AverageRunConfig,
    CltRow,
    CltRunConfig,
    ConcentrationRow,
    ConcentrationRunConfig,
    RunResult,
    arcsine_check,
    run_average,
    run_clt,
    run_concentration,
)
from friabilis.perron import (
    SaddleTail,
    TailReport,
    gaussian_tail,
    log_mgf,
    log_mgf_derivative,
    mgf,
    perron_tail_quadrature,
    saddle_tail_approx,
    solve_beta,
    tail_report,
)
from friabilis.saddle import (
    SaddleContext,
    make_context,
    psi_saddle_estimate,
    sigma2_star,
    sigma_bar_sq,
    solve_alpha,
    zeta_partial_log,
)

__version__ = "0.1.0"

__all__ = [
    "ArcsineRow",
    "AverageRow",
    "AverageRunConfig",
    "CltRow",
    "CltRunConfig",
    "ConcentrationRow",
    "ConcentrationRunConfig",
    "ConfigError",
    "ConvergenceError",
    "DivisorLaw",
    "DivisorMoments",
    "DomainError",
    "Factorization",
    "FriabilisError",
    "ResourceLimitError",
    "RhoTable",
    "RunResult",
    "SaddleContext",
    "SaddleTail",
    "SmoothSet",
    "TailReport",
    "additive_fk",
    "arcsine_check",
    "dickman_rho",
    "enumerate_smooth",
    "exact_law",
    "exact_upper_tail",
    "factorize",
    "gaussian_tail",
    "get_backend",
    "log_mgf",
    "log_mgf_derivative",
    "make_context",
    "mgf",
    "model_mean_additive",
    "moments",
    "nudge_off_atom",
    "perron_tail_quadrature",
    "psi_dickman_estimate",
    "psi_exact",
    "psi_recursive",
    "psi_saddle_estimate",
    "run_average",
    "run_clt",
    "run_concentration",
    "saddle_tail_approx",
    "sieve_primes",
    "sigma2_star",
    "sigma_bar_sq",
    "solve_alpha",
    "solve_beta",
    "tail_report",
    "zeta_partial_log",
    "__version__",
]
