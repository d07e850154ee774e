"""Plug-and-play ADMM image restoration with residual-envelope diagnostics."""

from .denoisers import (
    BoxAverage,
    BoundCheckReport,
    Denoiser,
    DenoiserBoundEstimate,
    GaussianSmoothing,
    IdentityDenoiser,
    ImageGrid,
    MedianFilter,
    denoise,
    estimate_denoiser_bound_constant,
    residue_ratio,
    verify_denoiser_bound,
)
from .fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    ForwardOperator,
    GradientBoundEstimate,
    Identity,
    Mask,
    ProxSolveError,
    binomial_stencil,
    estimate_gradient_bound,
    prox_x_update,
)
from .linalg import (
    DimensionMismatchError,
    IterateTriple,
    as_vector,
    euclidean_norm,
    metric_distance,
)
from .sequences import (
    BoundCheck,
    BoundConstructionError,
    CaseClassification,
    CauchyCertificate,
    ConditionTrace,
    PgsBound,
    PgsSpec,
    TraceInvariantError,
    alternation_boundaries,
    cauchy_index,
    classify_case,
    construct_s12_bound,
    construct_s3_bound,
    estimate_growth_coefficient,
    pgs_chunk_sum_bound,
    pgs_generate,
    pgs_total_sum_bound,
    verify_bound,
)
from .solver import (
    ConditionFlag,
    FixedPointReport,
    NonFiniteIterateError,
    RunTrace,
    SolverConfig,
    TraceRecord,
    fixed_point_residual,
    run,
    step,
    update_rho,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
