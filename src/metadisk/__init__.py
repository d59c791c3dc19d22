"""Meta-analytic functions on the unit disk: construction, evaluation,
boundary behavior, and Schwarz-type boundary value problems."""

from .boundary import (
    BoundaryDistribution,
    HardyNormEstimate,
    TestFunction,
    growth_order,
    hardy_norm,
    lp_boundary_convergence,
    meta_hardy_norm,
    pairing_limits,
    poisson_extend,
)
from .disk import PolarGrid, RadialSequence
from .errors import (
    AliasedSampling,
    Divergent,
    IllConditioned,
    MetadiskError,
    NonFinite,
)
from .integral import (
    PolyAnalytic,
    SimilarityFactor,
    schwarz_pompeiu_poly,
    similarity_factor,
    teodorescu_poly,
)
from .meta import (
    DecompositionFit,
    MetaExpr,
    derivative_matrix,
    derivative_stack,
    pde_residual,
    poly_decompose,
)
from .report import Check, Report
from .schwarz import (
    BoundaryReport,
    SchwarzProblem,
    SchwarzSolution,
    chain_from_top,
    default_test_basis,
    imag_mean_constant,
    solve_meta,
    solve_poly_chain,
    verify_boundary_conditions,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
