"""End-to-end coloring pipelines for graphs with a caller-asserted Euler genus.

Genus is never computed (that problem is NP-hard); the caller asserts a bound
g and the pipelines check cheap necessary conditions, refusing inputs that
provably violate the assertion.  Headline color counts are asymptotic in g,
so the pipelines certify validity through the verifiers and report raw
counts instead of asserting asymptotic bounds.

Each pipeline splits the degeneracy order into a prefix V1 and the rest V2.
The injective one gives each edge inside V1 a fresh color.  It and
oriented_color_genus color the arcs leaving V2 with the class step
injective.color_greedy_classes, as inj-degenerate does.  The oriented ones
share a front, which strips the arcs inside V1, and a back, which gives V1
unique colors and reports.
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
from .injective import color_greedy_classes, verify_injective
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


def _genus_ordering(G: UndirectedGraph, genus: int, rng_seed: int) -> tuple[VertexOrdering, dict]:
    """The degeneracy order of G and the stats every report opens with, after
    refusing a genus below 2 or above 10^300 (the reports' bounds are floats)
    or a degeneracy above the Heawood bound."""
    if genus < 2:
        raise GenusTooSmallError("the pipelines require an asserted genus of at least 2")
    if genus > 10**300:
        raise ValueError("the pipelines take an asserted genus of at most 10^300")
    ordering = degeneracy_order(G)
    bound = heawood_degeneracy_bound(genus)
    if ordering.d > bound:
        raise DegeneracyExceedsGenusError(
            f"degeneracy {ordering.d} exceeds {bound}, impossible at Euler genus {genus}"
        )
    return ordering, {"seed": rng_seed, "degeneracy": ordering.d, "heawood_bound": bound}


def _color_classes(D: OrientedGraph, v2: tuple[int, ...], proper: VertexColoring, genus: int,
                   rng_seed: int, class_cap: int
                   ) -> tuple[EdgeColoring, dict[str, int], dict[str, dict]]:
    """color_greedy_classes on the arcs leaving v2 unless some vertex's class
    exceeds class_cap or its out-degree reaches it."""
    for v in v2:
        if proper[v] > class_cap or D.out_degree(v) >= class_cap:
            raise DegeneracyExceedsGenusError(
                f"vertex {v} needs color {proper[v]} with out-degree {D.out_degree(v)}, "
                f"beyond the caps ({class_cap}, {class_cap - 1}) for genus {genus}"
            )
    return color_greedy_classes(D, v2, proper, rng_seed, genus)


def injective_color_genus(
    G: UndirectedGraph, genus: int, rng_seed: int = 0
) -> tuple[EdgeColoring, PipelineReport]:
    """Injective edge coloring of a graph with asserted Euler genus g >= 2.

    The first ceil(6g / ln g) - 1 vertices of the degeneracy order form V1
    and their internal edges each get one fresh color; Euler-formula counting
    keeps that phase near 3g colors.  Every later vertex has at most
    floor(ln g) + 5 earlier neighbors, so at most floor(ln g) + 6 greedy
    classes partition V2, and each class's outgoing arcs are colored through
    a clique-graph peel coloring and singleton rounds, or randomized rounds
    when the singleton rounds would be more than half as many.
    """
    ordering, stats = _genus_ordering(G, genus, rng_seed)
    log_g = math.log(genus)
    split = math.ceil(6 * genus / log_g) - 1
    v1, v2 = set(ordering.order[:split]), ordering.order[split:]
    class_cap = math.floor(log_g) + 6
    classes, phase_colors, class_stats = _color_classes(
        orient_by_ordering(G, ordering), v2, greedy_color(G, ordering), genus, rng_seed,
        class_cap)

    inner = [(u, v) for u, v in G.edges() if u in v1 and v in v1]
    merged = dict(classes.colors)
    merged.update((e, classes.k + i) for i, e in enumerate(inner, start=1))
    phase_colors["v1_fresh"] = len(inner)
    coloring = EdgeColoring._from_normalized(merged)
    edge_bound = 6 * genus + 36 * genus / log_g
    return coloring, PipelineReport(
        colors_used=coloring.k, v1_size=len(v1), v2_size=len(v2), phase_colors=phase_colors,
        checks={"injective_valid": verify_injective(G, coloring),
                "v1_edge_bound_ok": 2 * len(inner) < edge_bound},
        stats=dict(stats, class_cap=class_cap, v1_edges=len(inner), v1_edge_bound=edge_bound,
                   **class_stats),
    )


def _strip_prefix(D: OrientedGraph, genus: int, rng_seed: int):
    """The front of the oriented pipelines: G = D's underlying graph, its
    checked degeneracy order with the opening stats, V1 = the first 6g
    vertices of the order, V2 = the rest, and D without the arcs inside V1,
    its out-sets filtered from D's and so built trusted."""
    G = D.underlying()
    ordering, stats = _genus_ordering(G, genus, rng_seed)
    v1 = set(ordering.order[: 6 * genus])
    out = [heads - v1 if a in v1 else set(heads) for a, heads in enumerate(D._out)]
    stripped = OrientedGraph._from_sets(D.n, out, sum(map(len, out)))
    return G, ordering, stats, v1, ordering.order[6 * genus:], stripped


def _finish_oriented(D: OrientedGraph, v1: set[int], v2: tuple[int, ...], base: VertexColoring,
                     phase_colors: dict[str, int], stats: dict[str, object], check: str,
                     limit: float) -> tuple[VertexColoring, PipelineReport]:
    """The back of the oriented pipelines: unique colors for V1 on top of
    base, then the report, whose count check `check` holds when the final
    count stays below limit."""
    final = add_unique_colors(D, v1, base)
    return final, PipelineReport(
        colors_used=final.k, v1_size=len(v1), v2_size=len(v2),
        phase_colors=dict(phase_colors, base_oriented=base.k),
        checks={"oriented_valid": verify_oriented_coloring(D, final), check: final.k < limit},
        stats=stats,
    )


def oriented_color_genus(
    D: OrientedGraph, genus: int, rng_seed: int = 0
) -> tuple[VertexColoring, PipelineReport]:
    """Oriented coloring of a digon-free orientation with asserted genus g >= 2.

    The first 6g vertices of the degeneracy order form V1; with the edges
    inside V1 removed, every remaining vertex has at most 6 earlier
    neighbors, so at most 7 greedy classes partition V2 (the caps refuse
    any other input), and the class step colors the stripped graph's edges
    injectively, class by class.  That converts to an oriented coloring of
    the user orientation; finally V1 is recolored with unique colors.  When
    n <= 6g, V2 is empty and every vertex gets a unique color 1..n.
    """
    G, ordering, stats, v1, v2, stripped = _strip_prefix(D, genus, rng_seed)
    aux = orient_by_ordering(stripped.underlying(), ordering)
    inj, phase_colors, class_stats = _color_classes(aux, v2, greedy_color(G, ordering), genus,
                                                    rng_seed, 7)
    base = oriented_from_injective(stripped, inj)
    # At most 6g + 4^k colors, k being the injective count.
    return _finish_oriented(D, v1, v2, base, dict(phase_colors, injective_total=inj.k),
                            dict(stats, injective_colors=inj.k, **class_stats),
                            "count_within_6g_plus_4_pow_k", 6 * genus + 4**inj.k + 1)


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
    degeneracy.  build_full_graph certifies targets of at most
    oriented.FULL_VERTEX_BUDGET vertices, so only of order 2, and raises
    BudgetExceededError beyond; the pipeline then re-raises that refusal
    unless allow_uncertified_full asks for an uncertified sampled target.
    """
    _, _, stats, v1, v2, stripped = _strip_prefix(D, genus, rng_seed)
    phase_colors: dict[str, int] = {}
    stats["certified_target"] = True
    k = 5
    if stripped.m == 0:
        base = VertexColoring({v: 1 for v in range(D.n)})
        stats["route"] = "edgeless"
    else:
        psi = greedy_2dipath(stripped)
        k = max(5, psi.k)
        stats["two_dipath_colors"] = psi.k
        inner_ordering = degeneracy_order(stripped.underlying())
        order_needed = max(2, inner_ordering.d)
        stats["full_order"] = order_needed
        try:
            target = build_full_graph(k, order_needed, derive_seed(rng_seed, 1))
            stats["route"] = "certified_full_graph"
        except BudgetExceededError as exc:
            if not allow_uncertified_full:
                raise BudgetExceededError(
                    f"{exc}  Pass allow_uncertified_full (--unverified-full on the "
                    "command line) to sample an uncertified target."
                ) from None
            target = sample_full_orientation(k, order_needed, derive_seed(rng_seed, 1))
            stats["certified_target"] = False
            stats["route"] = "uncertified_full_graph"
        mapping = homomorphism_to_full(stripped, inner_ordering, psi, target)
        base = coloring_from_homomorphism(mapping)
        phase_colors["target_parts"] = target.k
        phase_colors["target_part_size"] = target.N
    stats["bound_value"] = ORIENTED_BOUND_CONSTANT * (k * math.log(k) + genus + 1)
    return _finish_oriented(D, v1, v2, base, phase_colors, stats,
                            "count_within_C_k_log_k_plus_g", stats["bound_value"])
