import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injcolor import (
    BudgetExceededError,
    EdgeColoring,
    FullGraph,
    InvalidColoringError,
    OrientedGraph,
    VertexColoring,
    add_unique_colors,
    build_full_graph,
    coloring_from_homomorphism,
    degeneracy_order,
    exact_2dipath_number,
    full_part_size,
    greedy_2dipath,
    homomorphism_to_full,
    injective_color_degenerate,
    oriented_from_injective,
    random_degenerate_graph,
    random_orientation,
    sample_full_orientation,
    verify_2dipath,
    verify_full,
    verify_homomorphism,
    verify_oriented_coloring,
)
from injcolor import oriented
from .bruteforce import dipath2_assignment_valid, oriented_assignment_valid


def test_oriented_from_injective_single_arc():
    D = OrientedGraph(2, [(0, 1)])
    vc = oriented_from_injective(D, EdgeColoring({(0, 1): 1}))
    assert vc.k == 2 and verify_oriented_coloring(D, vc)


def test_oriented_from_injective_path_trace():
    D = OrientedGraph(3, [(0, 1), (1, 2)])
    vc = oriented_from_injective(D, EdgeColoring({(0, 1): 1, (1, 2): 2}))
    # ({1},{}), ({2},{1}), ({},{2}) are three distinct pair-colors
    assert vc.k == 3 and verify_oriented_coloring(D, vc)


def test_oriented_from_injective_bounded_by_4_pow_k():
    for seed in range(8):
        G = random_degenerate_graph(40, 2, seed)
        coloring = injective_color_degenerate(G, seed)
        D = random_orientation(G, seed + 50)
        vc = oriented_from_injective(D, coloring)
        assert verify_oriented_coloring(D, vc)
        assert vc.k <= 4 ** coloring.k


def test_add_unique_colors_examples():
    D = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    base = VertexColoring({0: 1, 1: 1, 2: 1})
    out = add_unique_colors(D, [0, 1, 2], base)
    assert out.k == 3 and verify_oriented_coloring(D, out)

    arc_plus_isolated = OrientedGraph(3, [(0, 1)])
    base2 = VertexColoring({0: 1, 1: 2, 2: 1})
    out2 = add_unique_colors(arc_plus_isolated, [2], base2)
    assert out2[0] == 1 and out2[1] == 2 and out2[2] not in (1, 2)
    assert verify_oriented_coloring(arc_plus_isolated, out2)

    assert add_unique_colors(D, [], VertexColoring({0: 1, 1: 2, 2: 3})).k == 3


def test_greedy_2dipath_examples():
    assert greedy_2dipath(OrientedGraph(2, [(0, 1)])).k == 2
    dpath = OrientedGraph(3, [(0, 1), (1, 2)])
    coloring = greedy_2dipath(dpath)
    assert coloring.k == 3 == exact_2dipath_number(dpath)
    star = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert greedy_2dipath(star).k == 2 == exact_2dipath_number(star)


def test_greedy_2dipath_always_valid():
    from injcolor import OracleBudget

    budget = OracleBudget(max_vertices=30, max_edges=99, timeout=60)
    for seed in range(20):
        D = random_orientation(random_degenerate_graph(25, 2, seed), seed)
        psi = greedy_2dipath(D)
        assert verify_2dipath(D, psi)
        assert psi.k >= exact_2dipath_number(D, budget)


def test_full_part_size_formula():
    assert full_part_size(5, 2) == math.ceil(64 * math.log(5)) == 104
    assert full_part_size(6, 2) == 115
    assert full_part_size(5, 3) == math.ceil(512 * math.log(5))


def test_build_full_graph_rejects_small_parameters():
    with pytest.raises(ValueError):
        build_full_graph(4, 2)
    with pytest.raises(ValueError):
        build_full_graph(5, 1)
    # refused before any arc is drawn: N would be 825 and verification endless
    with pytest.raises(BudgetExceededError, match="4125 vertices exceeds the budget 4096"):
        build_full_graph(5, 3)


def test_build_full_graph_refuses_too_many_vertices(monkeypatch):
    # k = 22 needs 22 parts of 198 vertices, past FULL_VERTEX_BUDGET = 4096
    with pytest.raises(BudgetExceededError, match="4356 vertices"):
        build_full_graph(22, 2)
    # the budget is inclusive: (5, 2) has exactly 520 vertices
    monkeypatch.setattr(oriented, "FULL_VERTEX_BUDGET", 520)
    assert build_full_graph(5, 2, 0).n == 520
    monkeypatch.setattr(oriented, "FULL_VERTEX_BUDGET", 519)
    with pytest.raises(BudgetExceededError):
        build_full_graph(5, 2, 0)


def test_full_graph_structure():
    H = build_full_graph(5, 2, 0)
    assert H.N == full_part_size(5, 2)
    assert H.n == 5 * H.N
    assert verify_full(H)
    # exactly one arc per cross pair, none inside a part
    rng = random.Random(0)
    for _ in range(300):
        u, v = rng.randrange(H.n), rng.randrange(H.n)
        if u == v:
            continue
        if u // H.N == v // H.N:
            assert not H.has_arc(u, v) and not H.has_arc(v, u)
        else:
            assert H.has_arc(u, v) != H.has_arc(v, u)
    expected_cross = (H.n * (H.n - H.N)) // 2
    assert H.arc_count == expected_cross


def test_verify_full_counterexamples():
    # one vertex per part cannot realize four sign patterns
    outs = [0] * 5
    for i in range(5):
        for j in range(i + 1, 5):
            outs[i] |= 1 << j
    assert not verify_full(FullGraph(5, 1, 2, outs))

    # redirect part 0 fully outward: patterns pointing into part 0 disappear
    H = build_full_graph(5, 2, 1)
    out = list(H._out)
    pmask = (1 << H.N) - 1
    for x in range(H.N):
        out[x] |= ((1 << H.n) - 1) & ~pmask
    for v in range(H.N, H.n):
        out[v] &= ~pmask
    assert not verify_full(FullGraph(5, H.N, 2, out))

    # remove the single pattern "x -> u and x -> v" for one pair outside part 0
    out = list(H._out)
    u, v = H.N, 2 * H.N
    for x in range(H.N):
        if out[x] >> u & 1 and out[x] >> v & 1:
            out[x] &= ~(1 << v)
            out[v] |= 1 << x
    assert not verify_full(FullGraph(5, H.N, 2, out))


def test_verify_full_matches_brute_force():
    from itertools import permutations, product

    def brute(H):
        for part in range(H.k):
            members = range(part * H.N, (part + 1) * H.N)
            outside = [v for v in range(H.n) if v // H.N != part]
            for U in permutations(outside, H.d):
                for q in product((1, -1), repeat=H.d):
                    if not any(
                        all(
                            (H.has_arc(x, u) if s == 1 else H.has_arc(u, x))
                            for u, s in zip(U, q)
                        )
                        for x in members
                    ):
                        return False
        return True

    rng = random.Random(9)
    verdicts = set()
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        N = rng.choice([2, 4, 8, 16, 32])
        d = rng.choice([1, 2, 3])
        n = k * N
        out = [0] * n
        for u in range(n):
            for v in range((u // N + 1) * N, n):
                if rng.random() < 0.5:
                    out[u] |= 1 << v
                else:
                    out[v] |= 1 << u
        H = FullGraph(k, N, d, out)
        verdict = verify_full(H)
        assert verdict == brute(H)
        verdicts.add((d, verdict))
    assert {(1, True), (1, False), (2, True), (2, False), (3, False)} <= verdicts
    # fewer than d vertices outside each part: every pattern holds vacuously
    for H in (FullGraph(2, 1, 2, [0b10, 0]), FullGraph(2, 2, 3, [0b1100, 0b1100, 0, 0])):
        assert verify_full(H) and brute(H)


def test_homomorphism_edgeless():
    D = OrientedGraph(4)
    psi = VertexColoring({v: 1 for v in range(4)})
    H = build_full_graph(5, 2, 0)
    h = homomorphism_to_full(D, degeneracy_order(D.underlying()), psi, H)
    assert verify_homomorphism(D, H, h)
    assert all(h[v] // H.N == 0 for v in range(4))


def test_homomorphism_directed_path():
    D = OrientedGraph(3, [(0, 1), (1, 2)])
    psi = VertexColoring({0: 1, 1: 2, 2: 3})
    H = build_full_graph(5, 2, 0)
    h = homomorphism_to_full(D, degeneracy_order(D.underlying()), psi, H)
    assert verify_homomorphism(D, H, h)
    vc = coloring_from_homomorphism(h)
    assert verify_oriented_coloring(D, vc)


def test_homomorphism_random_2degenerate():
    H_cache = {}
    for seed in range(10):
        G = random_degenerate_graph(30, 2, seed)
        D = random_orientation(G, seed + 1)
        psi = greedy_2dipath(D)
        k = max(5, psi.k)
        if k not in H_cache:
            H_cache[k] = build_full_graph(k, 2, k)
        H = H_cache[k]
        ordering = degeneracy_order(G)
        h = homomorphism_to_full(D, ordering, psi, H)
        assert verify_homomorphism(D, H, h)
        vc = coloring_from_homomorphism(h)
        assert verify_oriented_coloring(D, vc)
        assert vc.k <= k * H.N


def test_homomorphism_rejects_bad_inputs():
    D = OrientedGraph(3, [(0, 1), (1, 2)])
    H = build_full_graph(5, 2, 0)
    ordering = degeneracy_order(D.underlying())
    # psi is not a 2-dipath coloring (0 and 2 end a directed 2-path), which
    # the embedding does not check; here it still finds a homomorphism.
    h = homomorphism_to_full(D, ordering, VertexColoring({0: 1, 1: 2, 2: 1}), H)
    assert verify_homomorphism(D, H, h)
    with pytest.raises(InvalidColoringError):
        homomorphism_to_full(D, ordering, VertexColoring({0: 1, 1: 2, 2: 7}), H)
    from injcolor import VertexOrdering

    with pytest.raises(ValueError):
        homomorphism_to_full(D, VertexOrdering((0, 1, 2), 5), VertexColoring({0: 1, 1: 2, 2: 3}), H)


def test_sampled_full_orientation_is_digon_free_and_usable():
    S = sample_full_orientation(5, 3, 42)
    assert S.N == full_part_size(5, 3)
    rng = random.Random(1)
    for _ in range(400):
        u, v = rng.randrange(S.n), rng.randrange(S.n)
        if u == v or u // S.N == v // S.N:
            assert not S.has_arc(u, v)
        else:
            assert S.has_arc(u, v) != S.has_arc(v, u)
            assert S.has_arc(u, v) == S.has_arc(u, v)  # stable


def test_verify_homomorphism_examples():
    D = OrientedGraph(3, [(0, 1), (1, 2)])
    assert verify_homomorphism(D, D, {0: 0, 1: 1, 2: 2})
    assert not verify_homomorphism(D, D, {0: 0, 1: 0, 2: 2})  # collapses an arc
    rev = OrientedGraph(3, [(1, 0), (2, 1)])
    assert not verify_homomorphism(D, rev, {0: 0, 1: 1, 2: 2})
    with pytest.raises(ValueError):
        verify_homomorphism(D, D, {0: 0})


def test_verify_oriented_coloring_examples():
    arc = OrientedGraph(2, [(0, 1)])
    assert verify_oriented_coloring(arc, VertexColoring({0: 1, 1: 2}))
    dpath = OrientedGraph(3, [(0, 1), (1, 2)])
    assert not verify_oriented_coloring(dpath, VertexColoring({0: 1, 1: 2, 2: 1}))
    D = OrientedGraph(4, [(0, 1), (2, 3), (0, 3)])
    rainbow = VertexColoring({v: v for v in range(4)})
    assert verify_oriented_coloring(D, rainbow)


def test_verify_2dipath_examples():
    dpath = OrientedGraph(3, [(0, 1), (1, 2)])
    assert verify_2dipath(dpath, VertexColoring({0: 1, 1: 2, 2: 3}))
    assert not verify_2dipath(dpath, VertexColoring({0: 1, 1: 2, 2: 1}))
    star = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert verify_2dipath(star, VertexColoring({0: 1, 1: 2, 2: 2, 3: 2}))


def test_verifiers_agree_with_direct_definitions():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(2, 6)
        arcs = []
        for u, v in combinations(range(n), 2):
            r = rng.random()
            if r < 0.5:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        D = OrientedGraph(n, arcs)
        assignment = [rng.randint(0, 3) for _ in range(n)]
        vc = VertexColoring({v: assignment[v] for v in range(n)})
        assert verify_oriented_coloring(D, vc) == oriented_assignment_valid(arcs, assignment)
        assert verify_2dipath(D, vc) == dipath2_assignment_valid(n, arcs, assignment)
        # every accepted oriented coloring is an accepted 2-dipath coloring
        if verify_oriented_coloring(D, vc):
            assert verify_2dipath(D, vc)


@st.composite
def colored_orientations(draw):
    """An arbitrary orientation on 0-7 vertices, an assignment of 1-4 colors,
    and a vertex to leave uncolored (None when n = 0)."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in edges]
    k = draw(st.integers(min_value=1, max_value=4))
    assignment = draw(st.lists(st.integers(min_value=1, max_value=k), min_size=n, max_size=n))
    missing = draw(st.integers(min_value=0, max_value=n - 1)) if n else None
    return n, arcs, assignment, missing


@settings(max_examples=300, deadline=None)
@given(colored_orientations())
def test_verifiers_match_direct_definitions_on_any_orientation(case):
    n, arcs, assignment, missing = case
    D = OrientedGraph(n, arcs)
    vc = VertexColoring(dict(enumerate(assignment)))
    assert verify_oriented_coloring(D, vc) == oriented_assignment_valid(arcs, assignment)
    assert verify_2dipath(D, vc) == dipath2_assignment_valid(n, arcs, assignment)
    if missing is not None:
        partial = VertexColoring({v: c for v, c in enumerate(assignment) if v != missing})
        for verify in (verify_oriented_coloring, verify_2dipath):
            with pytest.raises(InvalidColoringError):
                verify(D, partial)
