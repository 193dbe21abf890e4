"""Balanced-design incidence graphs with verified independence bounds.

Build weakly m-wise balanced designs (projective and affine planes, integer
grid-line packings, exact-size trims, seeded random packings), turn them
into clique-free incidence-pair graphs, and compute every bound the
construction guarantees: the greedy one-per-block independent set, the
largest-block set, an exact branch-and-bound optimum at desk scale, the
points-plus-blocks cap, the chromatic ratio bound, and the rectangle-free
incidence inequalities.
"""

from .bounds import (
    DEFAULT_EXACT_BUDGET,
    BoundsReport,
    IndependentSet,
    any_n_alpha_cap,
    bounds_report,
    chromatic_lower_bound,
    exact_max_independent_set,
    greedy_independent_set,
    largest_block_set,
    ravsky_lower_bound,
    ravsky_quadratic_check,
    upper_bound_alpha,
    verify_independent,
)
from .constructions import (
    TrimTrace,
    affine_plane,
    grid_line_design,
    projective_plane,
    random_packing,
    trim_to_n,
)
from .designs import (
    Design,
    DuplicatedSubset,
    EmptyBlock,
    InvalidPacking,
    UncoveredPoint,
    ValidationReport,
    design_from_json,
    design_to_json,
    fisher_holds,
    incidence_count,
    is_pairwise_balanced,
    is_steiner,
    rectangle_free,
    validate_packing,
)
from .incidence_graphs import (
    EXPORT_FORMATS,
    IncidenceGraph,
    OrderedDesign,
    build_gamma,
    check_clique_free,
    write_graph,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EXACT_BUDGET",
    "EXPORT_FORMATS",
    "BoundsReport",
    "Design",
    "DuplicatedSubset",
    "EmptyBlock",
    "IncidenceGraph",
    "IndependentSet",
    "InvalidPacking",
    "OrderedDesign",
    "TrimTrace",
    "UncoveredPoint",
    "ValidationReport",
    "affine_plane",
    "any_n_alpha_cap",
    "bounds_report",
    "build_gamma",
    "check_clique_free",
    "chromatic_lower_bound",
    "design_from_json",
    "design_to_json",
    "exact_max_independent_set",
    "fisher_holds",
    "greedy_independent_set",
    "grid_line_design",
    "incidence_count",
    "is_pairwise_balanced",
    "is_steiner",
    "largest_block_set",
    "projective_plane",
    "random_packing",
    "ravsky_lower_bound",
    "ravsky_quadratic_check",
    "rectangle_free",
    "trim_to_n",
    "upper_bound_alpha",
    "validate_packing",
    "verify_independent",
    "write_graph",
]
