"""Injective edge colorings and oriented colorings for degenerate and
bounded-genus graphs, with exact oracles and verifiers certifying every
output at desk scale."""

from .errors import BudgetExceededError, InjcolorError, InvalidColoringError
from .graphs import (
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    VertexOrdering,
    canonical_color_ids,
    degeneracy_order,
    edges_conflict,
    greedy_color,
    is_induced_star_forest,
    normalize_edge,
    orient_by_ordering,
    two_dipath_constraint_graph,
)
from .oracles import (
    OracleBudget,
    exact_2dipath_number,
    exact_chromatic_coloring,
    exact_chromatic_number,
    exact_injective_coloring,
    exact_injective_index,
    exact_oriented_coloring,
    exact_oriented_number,
)
from .separating import (
    FamilyConstructionError,
    SeparatingFamily,
    build_separating_family,
    family_size_bound,
    verify_separating_family,
)
from .hypergraphs import (
    neighborhood_hypergraph,
    peel_color_clique_graph,
)
from .injective import (
    FamilyTooWeakError,
    RoundLimitExceededError,
    color_arcs_deterministic,
    color_arcs_randomized,
    injective_color_degenerate,
    injective_color_subdivision,
    subdivide,
    verify_injective,
)
from .oriented import (
    FullGraph,
    FullGraphConstructionError,
    NoWitnessError,
    SampledFullOrientation,
    add_unique_colors,
    build_full_graph,
    coloring_from_homomorphism,
    full_part_size,
    greedy_2dipath,
    homomorphism_to_full,
    oriented_from_injective,
    sample_full_orientation,
    verify_2dipath,
    verify_full,
    verify_homomorphism,
    verify_oriented_coloring,
)
from .genus import (
    DegeneracyExceedsGenusError,
    GenusTooSmallError,
    PipelineReport,
    heawood_degeneracy_bound,
    injective_color_genus,
    oriented_color_genus,
    oriented_color_genus_via_2dipath,
)
from .generators import (
    complete_graph,
    cycle,
    edge_probability,
    genus_of_complete,
    grid_graph,
    pad_with_k5,
    path,
    random_degenerate_graph,
    random_genus_lowerbound,
    random_orientation,
)

__version__ = "0.1.0"
