"""Weakly-supervised temporal alignment of ordered feature streams.

Aligns two ordered modalities (e.g. video intervals and text sentences) by
minimizing a discriminative clustering objective over the convex hull of
monotone assignment matrices: Frank-Wolfe with a dynamic-programming linear
oracle, duration/band priors, semi-supervised constraints and exact
vertex roundings.
"""

from .core import (
    CostKernel,
    augment_affine,
    compute_q,
    discriminative_cost,
    fit_model,
)
from .evaluation import diagonal_path, jaccard_score, random_path
from .polytope import (
    AlignmentPath,
    CellMask,
    InfeasibleError,
    StreamLayout,
    band_indicator,
    blocks_to_matrix,
    lmo_blocks,
    minimize_linear,
)
from .priors import PriorConfig, band_penalty, duration_penalty
from .rounding import round_feature, round_model, round_nearest
from .solver import (
    ProblemInstance,
    SolveResult,
    exact_line_search,
    gradient,
    objective,
    solve,
)
from .supervision import (
    Annotation,
    Stream,
    annotation_to_path,
    assemble,
    build_interval_mask,
    fix_assignment_mask,
)

__version__ = "0.1.0"
