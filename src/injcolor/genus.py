"""End-to-end coloring pipelines for graphs with a caller-asserted Euler genus.

Genus is never computed (that problem is NP-hard); the caller asserts a bound
g and the pipelines check cheap necessary conditions, refusing inputs that
provably violate the assertion.  Headline color counts are asymptotic in g,
so the pipelines certify validity through the verifiers and report raw
counts instead of asserting asymptotic bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .errors import BudgetExceededError
from .graphs import (
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    VertexColoring,
    VertexOrdering,
    degeneracy_order,
    greedy_color,
    orient_by_ordering,
)
from .hypergraphs import neighborhood_hypergraph, peel_color_clique_graph
from .injective import color_arcs_deterministic, color_greedy_classes, verify_injective
from .oriented import (
    add_unique_colors,
    build_full_graph,
    coloring_from_homomorphism,
    greedy_2dipath,
    homomorphism_to_full,
    oriented_from_injective,
    sample_full_orientation,
    verify_oriented_coloring,
)
from .rng import derive_seed
from .separating import build_separating_family

ORIENTED_BOUND_CONSTANT = 2**20


class GenusTooSmallError(ValueError):
    pass


class DegeneracyExceedsGenusError(ValueError):
    """The input is denser than any graph of the asserted genus can be."""


@dataclass
class PipelineReport:
    colors_used: int
    v1_size: int
    v2_size: int
    phase_colors: dict[str, int] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def heawood_degeneracy_bound(genus: int) -> int:
    """floor((5 + sqrt(1 + 24g)) / 2); any graph of Euler genus g is at most
    this degenerate.  Integer sqrt keeps the floor exact."""
    return (5 + math.isqrt(1 + 24 * genus)) // 2


def _genus_ordering(G: UndirectedGraph, genus: int) -> tuple[VertexOrdering, int]:
    """The degeneracy order of G and the Heawood bound, after refusing a
    genus below 2 or a degeneracy above the bound."""
    if genus < 2:
        raise GenusTooSmallError("the pipelines require an asserted genus of at least 2")
    ordering = degeneracy_order(G)
    bound = heawood_degeneracy_bound(genus)
    if ordering.d > bound:
        raise DegeneracyExceedsGenusError(
            f"degeneracy {ordering.d} exceeds {bound}, impossible at Euler genus {genus}"
        )
    return ordering, bound


def _check_class_caps(D: OrientedGraph, v2: list[int], proper: VertexColoring,
                      class_cap: int, outdeg_cap: int, genus: int) -> None:
    for v in v2:
        if proper[v] > class_cap or D.out_degree(v) > outdeg_cap:
            raise DegeneracyExceedsGenusError(
                f"vertex {v} needs color {proper[v]} with out-degree {D.out_degree(v)}, "
                f"beyond the caps ({class_cap}, {outdeg_cap}) for genus {genus}"
            )


def injective_color_genus(
    G: UndirectedGraph, genus: int, rng_seed: int = 0
) -> tuple[EdgeColoring, PipelineReport]:
    """Injective edge coloring of a graph with asserted Euler genus g >= 2.

    The first ceil(6g / ln g) - 1 vertices of the degeneracy order form V1
    and their internal edges each get one fresh color; Euler-formula counting
    keeps that phase near 3g colors.  Every later vertex has at most
    floor(ln g) + 5 earlier neighbors, so at most floor(ln g) + 6 greedy
    classes partition V2, and each class's outgoing arcs are colored
    deterministically through a clique-graph peel coloring and a separating
    family.
    """
    ordering, heawood = _genus_ordering(G, genus)
    D = orient_by_ordering(G, ordering)
    proper = greedy_color(G, ordering)

    log_g = math.log(genus)
    split = min(G.n, math.ceil(6 * genus / log_g) - 1)
    order = ordering.order
    v1 = set(order[:split])
    v2 = list(order[split:])
    class_cap = math.floor(log_g) + 6
    _check_class_caps(D, v2, proper, class_cap, class_cap - 1, genus)

    per_class_peel: dict[str, int] = {}

    def color_class(cls: int, X: list[int]) -> EdgeColoring:
        r = max(2, max(D.out_degree(x) for x in X))
        part, peel = _color_genus_class(D, X, genus, r, derive_seed(rng_seed, cls))
        per_class_peel[f"class_{cls}"] = peel
        return part

    classes, phase_colors = color_greedy_classes(D, v2, proper, color_class)
    inner = [(u, v) for u, v in G.edges() if u in v1 and v in v1]
    merged = dict(classes.colors)
    merged.update((e, classes.k + i) for i, e in enumerate(inner, start=1))
    phase_colors["v1_fresh"] = len(inner)
    coloring = EdgeColoring(merged)
    edge_bound = 6 * genus + 36 * genus / log_g
    report = PipelineReport(
        colors_used=coloring.k,
        v1_size=len(v1),
        v2_size=len(v2),
        phase_colors=phase_colors,
        checks={
            "injective_valid": verify_injective(G, coloring),
            "v1_edge_bound_ok": 2 * len(inner) < edge_bound,
        },
        stats={
            "seed": rng_seed,
            "degeneracy": ordering.d,
            "heawood_bound": heawood,
            "class_cap": class_cap,
            "v1_edges": len(inner),
            "v1_edge_bound": edge_bound,
            "peel_colors": per_class_peel,
        },
    )
    return coloring, report


def _color_genus_class(
    D: OrientedGraph, X: list[int], genus: int, r: int, seed: int
) -> tuple[EdgeColoring, int]:
    """Color the arcs leaving class X deterministically: peel-color the
    clique graph of X's out-neighborhoods, then separate those colors with
    an order-r family.  Returns the coloring and the peel color count."""
    hyper, originals = neighborhood_hypergraph(D, X)
    dense = peel_color_clique_graph(hyper, genus=genus)
    hcol = VertexColoring({originals[i]: c for i, c in dense.colors.items()})
    family = build_separating_family(max(hcol.k, r), r, seed)
    return color_arcs_deterministic(D, X, hcol, family), hcol.k


def _split_after_6g(D: OrientedGraph, ordering: VertexOrdering, genus: int):
    order = ordering.order
    v1 = set(order[: 6 * genus])
    v2 = list(order[6 * genus:])
    restricted = OrientedGraph(
        D.n, [(a, b) for a, b in D.arcs() if a not in v1 or b not in v1]
    )
    return v1, v2, restricted


def oriented_color_genus(
    D: OrientedGraph, genus: int, rng_seed: int = 0
) -> tuple[VertexColoring, PipelineReport]:
    """Oriented coloring of a digon-free orientation with asserted genus g >= 2.

    The first 6g vertices of the degeneracy order form V1; with the edges
    inside V1 removed, every remaining vertex has at most 6 earlier
    neighbors, so the stripped graph gets an injective edge coloring through
    7 deterministic class rounds, which converts to an oriented coloring of
    the user orientation; finally V1 is recolored with unique colors.  When
    n <= 6g, V2 is empty and every vertex gets a unique color 1..n.
    """
    G = D.underlying()
    ordering, heawood = _genus_ordering(G, genus)
    v1, v2, restricted = _split_after_6g(D, ordering, genus)
    aux = orient_by_ordering(restricted.underlying(), ordering)
    proper = greedy_color(G, ordering)
    _check_class_caps(aux, v2, proper, 7, 6, genus)
    inj, phase_colors = color_greedy_classes(
        aux, v2, proper,
        lambda cls, X: _color_genus_class(aux, X, genus, 6, derive_seed(rng_seed, cls))[0],
    )

    base = oriented_from_injective(restricted, inj)
    final = add_unique_colors(D, v1, base)
    report = PipelineReport(
        colors_used=final.k,
        v1_size=len(v1),
        v2_size=len(v2),
        phase_colors=dict(phase_colors, injective_total=inj.k, base_oriented=base.k),
        checks={
            "oriented_valid": verify_oriented_coloring(D, final),
            "count_within_6g_plus_4_pow_k": final.k <= 6 * genus + 4**inj.k,
        },
        stats={"seed": rng_seed, "degeneracy": ordering.d, "heawood_bound": heawood,
               "injective_colors": inj.k},
    )
    return final, report


def oriented_color_genus_via_2dipath(
    D: OrientedGraph,
    genus: int,
    rng_seed: int = 0,
    allow_uncertified_full: bool = False,
) -> tuple[VertexColoring, PipelineReport]:
    """Oriented coloring via a greedy 2-dipath coloring and a full-graph target.

    After stripping the edges inside the first 6g vertices, the remainder is
    greedily 2-dipath colored with k colors (padded up to 5) and embedded by
    homomorphism into a (k, d)-full target, d being the stripped graph's
    degeneracy.  build_full_graph certifies targets only up to order
    oriented.FULL_ORDER_BUDGET and FULL_VERTEX_BUDGET vertices and raises
    BudgetExceededError beyond them; the pipeline then re-raises that refusal
    unless allow_uncertified_full asks for an uncertified sampled target.
    """
    G = D.underlying()
    ordering, heawood = _genus_ordering(G, genus)
    v1, v2, restricted = _split_after_6g(D, ordering, genus)

    phase_colors: dict[str, int] = {}
    stats: dict[str, object] = {"seed": rng_seed, "degeneracy": ordering.d,
                                "heawood_bound": heawood, "certified_target": True}
    k = 5
    if restricted.m == 0:
        base = VertexColoring({v: 1 for v in range(D.n)})
        stats["route"] = "edgeless"
    else:
        psi = greedy_2dipath(restricted)
        k = max(5, psi.k)
        stats["two_dipath_colors"] = psi.k
        inner_ordering = degeneracy_order(restricted.underlying())
        order_needed = max(2, inner_ordering.d)
        stats["full_order"] = order_needed
        try:
            target = build_full_graph(k, order_needed, derive_seed(rng_seed, 1))
            stats["route"] = "certified_full_graph"
        except BudgetExceededError as exc:
            if not allow_uncertified_full:
                raise BudgetExceededError(
                    f"{exc}  Pass allow_uncertified_full to sample an uncertified target."
                ) from None
            target = sample_full_orientation(k, order_needed, derive_seed(rng_seed, 1))
            stats["certified_target"] = False
            stats["route"] = "uncertified_full_graph"
        mapping = homomorphism_to_full(restricted, inner_ordering, psi, target)
        base = coloring_from_homomorphism(mapping)
        phase_colors["target_parts"] = target.k
        phase_colors["target_part_size"] = target.N
    phase_colors["base_oriented"] = base.k

    final = add_unique_colors(D, v1, base)
    bound = ORIENTED_BOUND_CONSTANT * (k * math.log(k) + genus + 1)
    report = PipelineReport(
        colors_used=final.k,
        v1_size=len(v1),
        v2_size=len(v2),
        phase_colors=phase_colors,
        checks={
            "oriented_valid": verify_oriented_coloring(D, final),
            "count_within_C_k_log_k_plus_g": final.k < bound,
        },
        stats=dict(stats, bound_value=bound),
    )
    return final, report
