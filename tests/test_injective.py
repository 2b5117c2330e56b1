import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from injcolor import (
    EdgeColoring,
    FamilyTooWeakError,
    InvalidColoringError,
    OracleBudget,
    OrientedGraph,
    RoundLimitExceededError,
    SeparatingFamily,
    UndirectedGraph,
    VertexColoring,
    build_separating_family,
    color_arcs_deterministic,
    color_arcs_randomized,
    complete_graph,
    cycle,
    degeneracy_order,
    exact_injective_index,
    greedy_color,
    injective_color_degenerate,
    injective_color_subdivision,
    is_induced_star_forest,
    neighborhood_hypergraph,
    normalize_edge,
    orient_by_ordering,
    path,
    peel_color_clique_graph,
    random_degenerate_graph,
    subdivide,
    verify_injective,
)
from injcolor import injective, oracles
from injcolor.rng import derive_seed
from .bruteforce import (
    injective_assignment_valid,
    last_sole_rounds,
    randomized_rounds,
    shade_rounds_reference,
)


def _classes_are_star_forests(G, colors):
    return all(
        is_induced_star_forest(G, es)
        for es in EdgeColoring(colors).classes().values()
    )


def test_randomized_star_center():
    D = OrientedGraph(6, [(0, i) for i in range(1, 6)])
    part = color_arcs_randomized(D, [0], 3)
    assert part.domain() == {(0, i) for i in range(1, 6)}
    assert _classes_are_star_forests(D.underlying(), part.colors)


def test_randomized_disjoint_arcs_can_share_a_class():
    D = OrientedGraph(6, [(0, 3), (1, 4), (2, 5)])
    part = color_arcs_randomized(D, [0, 1, 2], 0)
    assert part.domain() == {(0, 3), (1, 4), (2, 5)}
    assert _classes_are_star_forests(D.underlying(), part.colors)
    assert part.k >= 1  # a single class may hold all three arcs


def test_randomized_empty_set():
    D = OrientedGraph(3, [(0, 1)])
    assert color_arcs_randomized(D, [], 0).colors == {}
    # members with out-degree zero contribute nothing
    assert color_arcs_randomized(D, [2], 0).colors == {}


def test_randomized_rejects_dependent_set():
    D = OrientedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        color_arcs_randomized(D, [0, 1], 0)


@pytest.mark.parametrize("arc", [(0, 1), (1, 0)], ids=["0to1", "1to0"])
@pytest.mark.parametrize("refuse, message", [
    (lambda D: color_arcs_randomized(D, [0, 1], 0),
     "^vertex set is not independent: {} has a neighbor inside it$"),
    (lambda D: color_arcs_deterministic(D, [0, 1], VertexColoring({0: 1, 1: 2}),
                                        build_separating_family(2, 2, 0)),
     "^vertex set is not independent: {} has a neighbor inside it$"),
    (lambda D: neighborhood_hypergraph(D, [0, 1]), "^out-neighborhood of {} meets X$"),
], ids=["randomized", "deterministic", "hypergraph"])
def test_dependent_sets_are_refused_at_the_tail(refuse, message, arc):
    """Each arc inside X leaves one of its ends, so the out-neighbor test
    refuses it at its tail, whichever end that is."""
    with pytest.raises(ValueError, match=message.format(arc[0])):
        refuse(OrientedGraph(2, [arc]))


def test_randomized_on_larger_class():
    G = random_degenerate_graph(80, 3, 2)
    ordering = degeneracy_order(G)
    D = orient_by_ordering(G, ordering)
    und = D.underlying()
    X = []
    for v in range(G.n):
        if all(not und.has_edge(v, x) for x in X):
            X.append(v)
    part = color_arcs_randomized(D, X, 5)
    assert part.domain() == {tuple(sorted(a)) for a in D.arcs_out_of(X)}
    assert _classes_are_star_forests(und, part.colors)


def _cherries(m):
    """m disjoint cherries x -> a, x -> b, with x = 3j, a = 3j + 1, b = 3j + 2.

    Each round selects a given head as its tail's only one with probability
    1/4, so the nominal ceil(4e * 2 * ln 2) = 16 rounds leave about
    2m * (3/4)^16 arcs without a round."""
    arcs = [(3 * j, 3 * j + s) for j in range(m) for s in (1, 2)]
    return OrientedGraph(3 * m, arcs), arcs, [3 * j for j in range(m)]


@pytest.mark.parametrize("seed", range(5))
def test_randomized_extra_rounds_match_the_round_by_round_colorer(seed):
    D, arcs, X = _cherries(3000)
    round_of, rounds = randomized_rounds(D.n, arcs, X, seed)
    assert rounds > 16 and len(round_of) == len(arcs)  # extra rounds colored the rest
    assert color_arcs_randomized(D, X, seed) == injective._shade_rounds(D, round_of)


@pytest.mark.parametrize("seed", range(5))
def test_extra_rounds_rescan_only_tails_with_uncolored_arcs(monkeypatch, seed):
    """One pass over all 3,000 tails at the nominal round and one at the end;
    the extra rounds in between see only tails that still lack a round."""
    D, _, X = _cherries(3000)
    scanned = []
    last_sole_rounds = injective._last_sole_rounds

    def counting(D, tails, mask):
        scanned.append(len(tails))
        return last_sole_rounds(D, tails, mask)

    monkeypatch.setattr(injective, "_last_sole_rounds", counting)
    color_arcs_randomized(D, X, seed)
    assert len(scanned) > 2 and sum(scanned) <= 2 * 3000 + 1000


def test_randomized_round_limit_names_the_uncolored_arcs(monkeypatch):
    D, arcs, X = _cherries(3000)
    round_of, rounds = randomized_rounds(D.n, arcs, X, 0, round_limit_factor=1)
    assert rounds == 16 and len(round_of) < len(arcs)
    monkeypatch.setattr(injective, "ROUND_LIMIT_FACTOR", 1)
    with pytest.raises(RoundLimitExceededError,
                       match=f"^{len(arcs) - len(round_of)} arcs uncolored after 16 rounds "):
        color_arcs_randomized(D, X, 0)


@st.composite
def sole_round_cases(draw):
    """A small oriented graph with an independent set X, and per-round
    selections of vertices outside X."""
    n = draw(st.integers(min_value=1, max_value=9))
    X = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if u not in X or v not in X]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in edges]
    outside = [v for v in range(n) if v not in X]
    selections = draw(st.lists(st.sets(st.sampled_from(outside)), max_size=8))
    return OrientedGraph(n, arcs), sorted(X), selections


@settings(max_examples=300, deadline=None)
@given(sole_round_cases())
def test_last_sole_rounds_matches_the_round_by_round_rule(case):
    D, X, selections = case
    mask = {v: sum(1 << i for i, s in enumerate(selections) if v in s)
            for v in range(D.n) if v not in X}
    assert injective._last_sole_rounds(D, X, mask) == last_sole_rounds(D.arcs(), X, selections)


def test_deterministic_two_arc_example():
    D = OrientedGraph(3, [(0, 1), (0, 2)])
    hcol = VertexColoring({1: 1, 2: 2})
    fam = build_separating_family(2, 2, 0)
    part = color_arcs_deterministic(D, [0], hcol, fam)
    assert part.domain() == {(0, 1), (0, 2)}
    assert all(len(es) == 1 for es in EdgeColoring(part.colors).classes().values())


def test_deterministic_empty():
    D = OrientedGraph(3, [(0, 1)])
    fam = build_separating_family(2, 2, 0)
    assert color_arcs_deterministic(D, [], VertexColoring({}), fam).colors == {}


def test_deterministic_on_alternating_cycle():
    C6 = cycle(6)
    ordering = degeneracy_order(C6)
    D = orient_by_ordering(C6, ordering)
    X = [0, 2, 4]
    hyper, originals = neighborhood_hypergraph(D, X)
    dense = peel_color_clique_graph(hyper)
    hcol = VertexColoring({originals[i]: c for i, c in dense.colors.items()})
    d = max(D.out_degree(x) for x in X)
    fam = build_separating_family(max(hcol.k, 2, d), max(2, d), 1)
    part = color_arcs_deterministic(D, X, hcol, fam)
    assert part.domain() == {tuple(sorted(a)) for a in D.arcs_out_of(X)}
    assert _classes_are_star_forests(C6, part.colors)


def test_deterministic_rejects_improper_hcol():
    D = OrientedGraph(3, [(0, 1), (0, 2)])
    fam = build_separating_family(2, 2, 0)
    with pytest.raises(InvalidColoringError):
        color_arcs_deterministic(D, [0], VertexColoring({1: 1, 2: 1}), fam)
    with pytest.raises(InvalidColoringError):
        color_arcs_deterministic(D, [0], VertexColoring({1: 1, 2: 9}), fam)
    with pytest.raises(InvalidColoringError, match="^vertex 2 has no color$"):
        color_arcs_deterministic(D, [0], VertexColoring({1: 1}), fam)
    with pytest.raises(ValueError):
        # separation order below the out-degree
        D3 = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
        color_arcs_deterministic(
            D3, [0], VertexColoring({1: 1, 2: 2, 3: 3}),
            build_separating_family(3, 2, 0),
        )


def test_deterministic_detects_weak_family():
    from injcolor import SeparatingFamily

    D = OrientedGraph(3, [(0, 1), (0, 2)])
    hcol = VertexColoring({1: 1, 2: 2})
    weak = SeparatingFamily(2, 2, (frozenset({1, 2}),))
    with pytest.raises(FamilyTooWeakError):
        color_arcs_deterministic(D, [0], hcol, weak)


def test_degenerate_pipeline_examples():
    K4 = complete_graph(4)
    coloring = injective_color_degenerate(K4, 1)
    assert verify_injective(K4, coloring)
    assert coloring.k >= exact_injective_index(K4)

    P4 = path(4)
    assert injective_color_degenerate(P4, 0).k == 2  # closed form for max degree <= 2

    G = random_degenerate_graph(200, 2, 11)
    assert G.max_degree >= 3
    coloring = injective_color_degenerate(G, 11)
    assert verify_injective(G, coloring)
    bound = math.ceil(8 * math.e * math.log(G.max_degree)) * 5 * 3
    assert coloring.k <= bound


def test_paths_and_cycles_match_the_exact_index(monkeypatch):
    budget = OracleBudget(max_vertices=21, max_edges=21, timeout=60.0)
    graphs = [path(k + 1) for k in range(1, 13)] + [cycle(k) for k in range(3, 22)]
    # C5, a 3-edge path, a single edge and two isolated vertices
    graphs.append(UndirectedGraph(13, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                       (5, 6), (6, 7), (7, 8), (9, 10)]))
    for G in graphs:
        coloring = injective_color_degenerate(G, 0)
        assert verify_injective(G, coloring)
        assert coloring.k == exact_injective_index(G, budget)

    def no_oracle(*args):
        raise AssertionError("the exact solver was called")

    monkeypatch.setattr(oracles, "_solve_chromatic", no_oracle)
    big = cycle(12001)
    coloring = injective_color_degenerate(big, 0)
    assert coloring.k == 3 and verify_injective(big, coloring)


@st.composite
def oriented_graphs(draw):
    """A small arbitrarily oriented graph and a seed."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in edges]
    return OrientedGraph(n, arcs), draw(st.integers(min_value=0, max_value=2**16))


@settings(max_examples=200, deadline=None)
@given(oriented_graphs())
def test_arc_colorers_color_every_greedy_class_injectively(case):
    """Both colorers color exactly the arcs out of each greedy class X, and
    the pairwise definition accepts the result.  The deterministic colorer
    gets its head coloring and family as in acceptance criterion 5."""
    D, seed = case
    G = D.underlying()
    proper = greedy_color(G, degeneracy_order(G))
    for cls in sorted(set(proper.colors.values())):
        X = [v for v in range(G.n) if proper[v] == cls]
        expected = {normalize_edge(*a) for a in D.arcs_out_of(X)}
        parts = [color_arcs_randomized(D, X, seed)]
        if expected:
            hyper, originals = neighborhood_hypergraph(D, X)
            dense = peel_color_clique_graph(hyper)
            hcol = VertexColoring({originals[j]: c for j, c in dense.colors.items()})
            d = max(D.out_degree(x) for x in X)
            family = build_separating_family(hcol.k, max(2, d), seed)
            parts.append(color_arcs_deterministic(D, X, hcol, family))
        for part in parts:
            assert part.domain() == expected
            assert injective_assignment_valid(
                G.n, G.edges(), {frozenset(e): c for e, c in part.colors.items()}
            )


@st.composite
def class_step_graphs(draw):
    """A random d-degenerate graph (3 <= n <= 80, d <= 4), whose classes all
    take singleton rounds, or a subdivided K_h with 40 <= h <= 60, whose
    midpoints' class has 2k > R from h = 44 on and takes randomized rounds;
    and a seed."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        return subdivide(complete_graph(draw(st.integers(min_value=40, max_value=60)))), seed
    n, d = draw(st.integers(min_value=3, max_value=80)), draw(st.integers(min_value=1, max_value=4))
    return random_degenerate_graph(n, d, seed), seed


@settings(max_examples=100, deadline=None)
@given(class_step_graphs())
@example((subdivide(complete_graph(48)), 1))
def test_singleton_rounds_match_the_deterministic_colorer(case):
    """The class step shades singleton rounds itself; with the singleton
    family {1}, ..., {k}, color_arcs_deterministic is the reference for
    every class that takes them, and color_arcs_randomized with the class's
    seed for any other.  From n = 3 on the largest degree is at least 2, and
    some class takes singleton rounds."""
    G, seed = case
    n = G.n
    ordering = degeneracy_order(G)
    D, proper = orient_by_ordering(G, ordering), greedy_color(G, ordering)
    coloring, phase_colors, stats = injective.color_greedy_classes(D, range(n), proper, seed)
    expected, offset = {}, 0
    for cls in sorted(set(proper.colors.values())):
        X = [v for v in range(n) if proper[v] == cls]
        if not any(D.out_degree(x) for x in X):
            continue
        if stats["class_routes"][f"class_{cls}"] == "singletons":
            hyper, heads = neighborhood_hypergraph(D, X)
            dense = peel_color_clique_graph(hyper)
            hcol = VertexColoring({heads[j]: c for j, c in dense.colors.items()})
            singletons = SeparatingFamily(dense.k, dense.k,
                                          tuple(frozenset({c}) for c in range(1, dense.k + 1)))
            part = color_arcs_deterministic(D, X, hcol, singletons)
        else:
            part = color_arcs_randomized(D, X, derive_seed(seed, cls))
        assert phase_colors[f"class_{cls}"] == part.k
        expected.update((e, offset + c) for e, c in part.colors.items())
        offset += part.k
    assert coloring == EdgeColoring(expected)
    assert "singletons" in stats["class_routes"].values()
    assert set(stats["class_routes"].values()) <= {"singletons", "randomized"}


@st.composite
def round_maps(draw):
    """An oriented graph on n <= 20 vertices, an independent set X grown
    greedily along a drawn order, and rounds 1..6 on a drawn part of the
    arcs leaving X, distinct per tail as the arc colorers give them."""
    n = draw(st.integers(min_value=1, max_value=20))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.sampled_from((0.15, 0.3, 0.6)))
    D = OrientedGraph(n, [(u, v) if rng.random() < 0.5 else (v, u)
                          for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    G, X = D.underlying(), []
    for v in rng.sample(range(n), n):
        if not any(G.has_edge(v, x) for x in X):
            X.append(v)
    round_of = {}
    for x in X:
        heads = sorted(D.out_neighbors(x))
        for a, r in zip(heads, rng.sample(range(1, 7), min(6, len(heads)))):
            if rng.random() < 0.8:
                round_of[x, a] = r
    return D, round_of


@settings(max_examples=300, deadline=None)
@given(round_maps())
def test_shade_rounds_matches_the_round_shade_construction(case):
    """Both routes of the class step and both arc colorers end in _shade_rounds;
    offset + shade equals the sorted numbering of the (round, shade) pairs."""
    D, round_of = case
    colors = injective._shade_rounds(D, round_of).colors
    assert list(colors.items()) == list(shade_rounds_reference(D.n, D.arcs(), round_of).items())


@pytest.mark.parametrize("h, tails_route", [(32, "singletons"), (48, "randomized")])
def test_degenerate_class_routes_on_subdivided_cliques(h, tails_route):
    """Each midpoint of subdivide(K_h) points at its two ends, so the
    midpoints' class peel-colors nearly all h ends.  Twice that count is at
    most R = ceil(4e * 2 * ln(h - 1)) rounds at h = 32 (60 <= 75), so every
    class takes singleton rounds; at h = 48 it is 92 > 84, and
    color_arcs_randomized colors that class within the same count bound."""
    S = subdivide(complete_graph(h))
    report = {}
    coloring = injective_color_degenerate(S, 1, report)
    assert verify_injective(S, coloring)
    d = degeneracy_order(S).d
    nominal = math.ceil(4 * math.e * d * math.log(S.max_degree))
    assert d == 2 and coloring.k <= nominal * (2 * d + 1) * (d + 1)
    peel = report["peel_colors"]
    tails = max(peel, key=peel.get)
    assert (2 * peel[tails] <= nominal) == (tails_route == "singletons")
    assert report["class_routes"] == {
        cls: tails_route if cls == tails else "singletons" for cls in peel}
    assert sum(report["phase_colors"].values()) == coloring.k


def test_degenerate_pipeline_determinism():
    G = random_degenerate_graph(60, 3, 7)
    assert injective_color_degenerate(G, 9) == injective_color_degenerate(G, 9)


def test_degenerate_colors_the_empty_graph():
    report = {}
    coloring = injective_color_degenerate(UndirectedGraph(0), 1, report)
    assert coloring == EdgeColoring({}) and coloring.k == 0 and report == {}
    assert verify_injective(UndirectedGraph(0), coloring)
    assert injective_color_degenerate(UndirectedGraph(3), 0).k == 0


def test_subdivide_examples():
    sub3 = subdivide(complete_graph(3))
    # connected and 2-regular on 6 vertices: a 6-cycle
    assert (sub3.n, sub3.m) == (6, 6)
    assert all(sub3.degree(v) == 2 for v in range(6))
    assert degeneracy_order(sub3).d == 2
    single = subdivide(path(2))
    assert (single.n, single.m) == (3, 2)
    sub4 = subdivide(complete_graph(4))
    assert (sub4.n, sub4.m) == (10, 12)


def test_subdivision_coloring_examples():
    K2 = path(2)
    col = injective_color_subdivision(K2, VertexColoring({0: 1, 1: 2}))
    assert col.k <= 2 and verify_injective(subdivide(K2), col)

    K4 = complete_graph(4)
    pc4 = VertexColoring({v: v + 1 for v in range(4)})
    col4 = injective_color_subdivision(K4, pc4)
    assert col4.k <= 4 and verify_injective(subdivide(K4), col4)
    assert exact_injective_index(subdivide(K4)) >= math.log2(4)

    K8 = complete_graph(8)
    pc8 = VertexColoring({v: v + 1 for v in range(8)})
    col8 = injective_color_subdivision(K8, pc8)
    assert col8.k <= 6 and verify_injective(subdivide(K8), col8)


def test_subdivision_coloring_rejects_improper():
    with pytest.raises(InvalidColoringError):
        injective_color_subdivision(path(2), VertexColoring({0: 1, 1: 1}))
    with pytest.raises(InvalidColoringError):
        injective_color_subdivision(path(3), VertexColoring({0: 1, 1: 2}))
    # vertex 2 is isolated, so no edge reads its color
    with pytest.raises(InvalidColoringError, match="^vertex 2 has no color$"):
        injective_color_subdivision(UndirectedGraph(3, [(0, 1)]), VertexColoring({0: 1, 1: 2}))


def test_verify_injective_examples():
    K3 = complete_graph(3)
    mono = EdgeColoring({e: 1 for e in K3.edges()})
    assert not verify_injective(K3, mono)
    rainbow = EdgeColoring({e: i for i, e in enumerate(K3.edges())})
    assert verify_injective(K3, rainbow)
    P4 = path(4)
    assert verify_injective(P4, EdgeColoring({(0, 1): 1, (1, 2): 1, (2, 3): 2}))
    with pytest.raises(InvalidColoringError):
        verify_injective(P4, EdgeColoring({(0, 1): 1}))
    with pytest.raises(InvalidColoringError, match=r"^colored non-edges present, e.g. \(0, 2\)$"):
        verify_injective(path(3), EdgeColoring({(0, 1): 1, (1, 2): 2, (0, 2): 3}))


def test_verify_injective_names_a_missing_edge_before_a_non_edge(monkeypatch):
    # As many colored pairs as edges: (2, 3) is missing and the non-edge (0, 3) is colored.
    with pytest.raises(InvalidColoringError, match=r"^edge \(2, 3\) has no color$"):
        verify_injective(path(4), EdgeColoring({(0, 1): 1, (1, 2): 2, (0, 3): 3}))
    # Coverage is a count over has_edge; the edge list is walked only to name a missing edge.
    G = random_degenerate_graph(60, 3, 2)
    coloring = injective_color_degenerate(G, 0)

    def unused(self):
        raise AssertionError("verify_injective listed the edges of a covered graph")

    monkeypatch.setattr(UndirectedGraph, "edges", unused)
    assert verify_injective(G, coloring)
    with pytest.raises(InvalidColoringError, match="colored non-edges present"):
        verify_injective(G, EdgeColoring({**coloring.colors, (0, 59): 1}))


def test_verify_injective_agrees_with_direct_definition():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        if not edges:
            continue
        G = UndirectedGraph(n, edges)
        colors = {e: rng.randint(1, 3) for e in edges}
        mine = verify_injective(G, EdgeColoring(colors))
        ref = injective_assignment_valid(n, edges, {frozenset(e): c for e, c in colors.items()})
        assert mine == ref


@st.composite
def colored_graphs(draw):
    """A small graph, an arbitrary (often non-injective) total coloring of
    it, and an arbitrary edge subset."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    k = draw(st.integers(min_value=1, max_value=4))
    colors = {e: draw(st.integers(min_value=1, max_value=k)) for e in edges}
    subset = [e for e in edges if draw(st.booleans())]
    return n, edges, colors, subset


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
# P4 with its end edges in the set: the joining edge (1, 2) lies outside it.
@example((4, [(0, 1), (1, 2), (2, 3)], {(0, 1): 1, (1, 2): 2, (2, 3): 1}, [(0, 1), (2, 3)]))
def test_fast_checks_agree_with_definition(case):
    n, edges, colors, subset = case
    G = UndirectedGraph(n, edges)
    assert verify_injective(G, EdgeColoring(colors)) == injective_assignment_valid(
        n, edges, {frozenset(e): c for e, c in colors.items()}
    )
    assert is_induced_star_forest(G, subset) == injective_assignment_valid(
        n, edges, {frozenset(e): 1 for e in subset}
    )
