"""Tail analysis of the maximum of a negative-drift random walk.

Exact lattice oracles, seeded Monte Carlo estimators, and predicted-constant
cross-validation for increment laws whose tails decay exponentially with a
heavy polynomial prefactor (subcritical twisted moment).
"""

__version__ = "0.1.0"

from .increments import (
    ModelError,
    PointMass,
    PolyExp,
    QuadratureError,
    TwoPoint,
    lgamma_diagnostic,
    parse_model,
    sgamma_diagnostic,
)
from .lattice import (
    Bracket,
    LatticeError,
    LatticePMF,
    MaxLaw,
    StoppedLaw,
    convolve,
    discretize,
    exp_moment,
    finite_horizon,
    lindley_fixed_point,
    stopped_max_sigma1,
)
from .montecarlo import (
    EstimatorError,
    EstimatorReport,
    SimConfig,
    bigjump_conditional_ratio,
    estimate_bigjump_sum,
    estimate_tail_crude,
    renewal_diagnostics,
)
from .asymptotics import (
    AsymptoticConstants,
    ConvergenceReport,
    constants,
    convergence_report,
    convolution_prediction,
    finite_constant,
    lambda_partial_sums,
    local_constant,
    stopped_constant,
)

__all__ = [
    "__version__",
    "ModelError",
    "QuadratureError",
    "PolyExp",
    "TwoPoint",
    "PointMass",
    "parse_model",
    "lgamma_diagnostic",
    "sgamma_diagnostic",
    "LatticeError",
    "Bracket",
    "LatticePMF",
    "MaxLaw",
    "StoppedLaw",
    "discretize",
    "convolve",
    "lindley_fixed_point",
    "finite_horizon",
    "stopped_max_sigma1",
    "exp_moment",
    "EstimatorError",
    "SimConfig",
    "EstimatorReport",
    "estimate_tail_crude",
    "estimate_bigjump_sum",
    "bigjump_conditional_ratio",
    "renewal_diagnostics",
    "AsymptoticConstants",
    "ConvergenceReport",
    "constants",
    "local_constant",
    "finite_constant",
    "stopped_constant",
    "lambda_partial_sums",
    "convolution_prediction",
    "convergence_report",
]
