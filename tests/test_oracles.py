import hashlib
import json
import random
import tracemalloc
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injcolor import (
    BudgetExceededError,
    OracleBudget,
    OrientedGraph,
    UndirectedGraph,
    complete_graph,
    cycle,
    edges_conflict,
    exact_2dipath_number,
    exact_chromatic_coloring,
    exact_chromatic_number,
    exact_injective_coloring,
    exact_injective_index,
    exact_oriented_coloring,
    exact_oriented_number,
    path,
    random_degenerate_graph,
    random_orientation,
    verify_injective,
    verify_oriented_coloring,
)
from injcolor import oracles
from injcolor.cli import run_command
from injcolor.dimacs import emit_graph
from injcolor.oracles import _conflict_adjacency, _Deadline, _solve_chromatic
from .bruteforce import (
    dsatur_reference,
    min_2dipath,
    min_chromatic,
    min_injective_colors,
    min_oriented,
)


def test_injective_index_examples():
    # frozen via the brute-force search in bruteforce.py
    assert min_injective_colors(4, complete_graph(4).edges()) == 6
    assert exact_injective_index(complete_graph(4)) == 6
    assert min_injective_colors(4, path(4).edges()) == 2
    assert exact_injective_index(path(4)) == 2
    assert min_injective_colors(4, cycle(4).edges()) == 2
    assert exact_injective_index(cycle(4)) == 2


def test_injective_index_cliques():
    for n in range(3, 7):
        budget = OracleBudget(max_vertices=20, max_edges=20, timeout=60)
        assert exact_injective_index(complete_graph(n), budget) == n * (n - 1) // 2


def test_injective_coloring_witness():
    G = cycle(6)
    coloring = exact_injective_coloring(G)
    assert verify_injective(G, coloring)
    assert coloring.k == exact_injective_index(G)


def test_chromatic_examples():
    assert exact_chromatic_number(complete_graph(5)) == 5
    assert exact_chromatic_number(cycle(5)) == 3
    assert exact_chromatic_number(UndirectedGraph(4)) == 1
    coloring = exact_chromatic_coloring(cycle(7))
    assert coloring.k == 3
    for u, v in cycle(7).edges():
        assert coloring[u] != coloring[v]


def test_2dipath_examples():
    assert exact_2dipath_number(OrientedGraph(2, [(0, 1)])) == 2
    assert exact_2dipath_number(OrientedGraph(3, [(0, 1), (1, 2)])) == 3
    out_star = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert exact_2dipath_number(out_star) == 2
    assert min_2dipath(4, out_star.arcs()) == 2


def test_oriented_examples():
    assert exact_oriented_number(OrientedGraph(2, [(0, 1)])) == 2
    tri = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert exact_oriented_number(tri) == 3
    assert min_oriented(3, tri.arcs()) == 3
    assert exact_oriented_number(OrientedGraph(5)) == 1
    coloring = exact_oriented_coloring(tri)
    assert verify_oriented_coloring(tri, coloring) and coloring.k == 3


def _random_oriented(n, seed, prob=0.5):
    rng = random.Random(seed)
    arcs = []
    for u, v in combinations(range(n), 2):
        r = rng.random()
        if r < prob:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, arcs)


def test_2dipath_below_oriented_exhaustive_n4():
    # all digon-free oriented graphs on 4 vertices
    pairs = list(combinations(range(4), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
        D = OrientedGraph(4, arcs)
        assert exact_2dipath_number(D) <= exact_oriented_number(D)


def test_2dipath_below_oriented_sampled_n5():
    for seed in range(150):
        D = _random_oriented(5, seed)
        assert exact_2dipath_number(D) <= exact_oriented_number(D)


@st.composite
def small_orientations(draw, max_n=7):
    """An oriented graph on at most max_n vertices.  No arc joins the
    vertices below the drawn split to those above it, so a split inside
    (0, n) gives a disconnected orientation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    split = draw(st.integers(min_value=0, max_value=n))
    pairs = [(u, v) for u, v in combinations(range(n), 2) if (u < split) == (v < split)]
    states = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(pairs), max_size=len(pairs)))
    return OrientedGraph(n, [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s])


@settings(max_examples=400, deadline=None)
@given(small_orientations())
def test_oracles_match_bruteforce_on_random_instances(D):
    n, arcs = D.n, D.arcs()
    edges = D.underlying().edges()
    G = UndirectedGraph(n, edges)
    assert exact_chromatic_number(G) == min_chromatic(n, edges)
    assert exact_injective_index(G) == min_injective_colors(n, edges)
    coloring = exact_oriented_coloring(D)
    assert verify_oriented_coloring(D, coloring)
    assert coloring.k == min_oriented(n, arcs)
    assert exact_2dipath_number(D) == min_2dipath(n, arcs)


def test_oriented_number_of_a_disjoint_union_exceeds_each_part():
    # A directed and a transitive triangle each take 3 colors, but on 3
    # colors the first puts a cyclic and the second a transitive tournament
    # on the color pairs, so together they need 4.  Solving each component
    # on its own would return 3.
    D = OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (4, 5)])
    assert exact_oriented_number(D) == min_oriented(6, D.arcs()) == 4


def test_bipartite_coloring_matches_networkx():
    # random bipartite graphs, half of them with a few edges added anywhere
    rng = random.Random(9)
    verdicts = set()
    for seed in range(40):
        n = rng.randrange(20, 300)
        side = [rng.randrange(2) for _ in range(n)]
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] != side[v] and rng.random() < 3 / n}
        if seed % 2:
            edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(1, 4))}
        G = UndirectedGraph(n, edges)
        H = nx.Graph(G.edges())
        H.add_nodes_from(range(n))
        coloring = exact_chromatic_coloring(G, OracleBudget(n, G.m))
        assert (coloring.k <= 2) == nx.is_bipartite(H)
        verdicts.add(coloring.k <= 2)
        assert sorted(coloring.colors) == list(range(n))
        assert all(coloring[u] != coloring[v] for u, v in G.edges())
    assert verdicts == {True, False}


def test_budget_errors():
    with pytest.raises(BudgetExceededError):
        exact_chromatic_number(UndirectedGraph(13))
    with pytest.raises(BudgetExceededError):
        exact_injective_index(complete_graph(8))  # 28 edges > 24
    with pytest.raises(BudgetExceededError):
        exact_oriented_number(OrientedGraph(13))
    with pytest.raises(BudgetExceededError):
        exact_2dipath_number(OrientedGraph(13))


def test_conflict_adjacency_matches_pairwise_scan():
    rng = random.Random(4)
    graphs = [complete_graph(5), cycle(9), path(6), random_degenerate_graph(14, 3, 1)]
    for _ in range(60):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(UndirectedGraph(n, [p for p in pairs if rng.random() < 0.4]))
    for G in graphs:
        edges = G.edges()
        expected = [set() for _ in edges]
        for i, j in combinations(range(len(edges)), 2):
            if edges_conflict(G, edges[i], edges[j]):
                expected[i].add(j)
                expected[j].add(i)
        adj = _conflict_adjacency(G, edges, _Deadline(60.0))
        # Comparing lists also compares iteration order, which the solver
        # does not depend on (see
        # test_chromatic_coloring_ignores_adjacency_insertion_order).
        assert [list(s) for s in adj] == [list(s) for s in expected]


def test_chromatic_search_honors_the_deadline():
    # An odd cycle: the failing k = 2 search alone passes 512 deadline
    # checks, where _Deadline reads the clock.  The budget admits the size,
    # so only the timeout can raise.
    G = cycle(1025)
    assert exact_chromatic_number(G, OracleBudget(2000, 2000, timeout=60.0)) == 3
    with pytest.raises(BudgetExceededError):
        exact_chromatic_number(G, OracleBudget(2000, 2000, timeout=-1.0))


def test_oriented_search_honors_the_deadline():
    # The search on the 2-dipath graph of this path passes 512 deadline
    # checks, so the clock is read and the negative timeout raises.
    D = OrientedGraph(1200, [(v, v + 1) for v in range(1199)])
    with pytest.raises(BudgetExceededError):
        exact_oriented_number(D, OracleBudget(1200, 1200, timeout=-1.0))


def _record_deadlines(monkeypatch) -> list[_Deadline]:
    """Every _Deadline the oracles make from now on, in order of creation."""
    made = []

    def deadline(timeout):
        made.append(_Deadline(timeout))
        return made[-1]

    monkeypatch.setattr(oracles, "_Deadline", deadline)
    return made


# Per instance i of the benchmark's oracle pool (random_degenerate_graph(24 +
# i % 7, 3, 1000 + i) and random_orientation(G, 2000 + i)): the _Deadline.nodes
# and the sha256 of the witness of the injective, chromatic and oriented
# oracles, and the _Deadline.nodes of the 2-dipath oracle, which returns no
# witness.  The injective searches prove k = chi - 1 infeasible and then find
# a coloring; over the pool they take 104,352 search nodes, plus one node per
# edge of G while the conflict graph is built.
PINNED_SEARCHES = {
    0: {"inj": (5768, "123048802434a4ec1b24562160da5c5e8023942a60019586b97a62d63c791c1e"),
        "chromatic": (21, "55d66b9cefa81a338404445fda4e90a22700d439d2c424548c1cbe0421be4071"),
        "oriented": (44, "9c50979009b778b89a386d4b1027dbdd26ab634b8a04496f432aa0311e40df3b"),
        "2dipath": 17},
    1: {"inj": (252, "5441fe91f8e3e3fac886651d1ef5b448dea56850b15bc4af6c41fbe09284a991"),
        "chromatic": (22, "eff79d4f34489093c9cf61072161290cc3c2c4cd9ed461520eb9d4ace5ad9d3a"),
        "oriented": (39, "39014727fdbf9f7c843c6d26e82e24b4cb86148cadfaf4a4fddc28bb961cde12"),
        "2dipath": 16},
    2: {"inj": (4487, "bd39f8c790f830a07eb07ef03e3f0fec5c12d46896ad63c4310a6af1bd1cbc9d"),
        "chromatic": (23, "4e19b87045d5b04df008aa80e6871b954d7122cbb528f041fdee305daaf5f375"),
        "oriented": (100, "52fc5860dbee23cfb1607a4f7795b503082dc009ca03c1dc348490262556c432"),
        "2dipath": 19},
    3: {"inj": (4477, "06fc2f39a62b19f0b9d9d81334513843f54575059d69fbfe45e271026d761cc1"),
        "chromatic": (24, "f0f9ba7ed750a3aa46868c01c07099876eb69b63dc74315f246420ea6f5a850b"),
        "oriented": (130, "755acf7c8d9f5b7e81b62a301deb44e11c20d5c984a39958d1c9a0ef9e29fad8"),
        "2dipath": 22},
    4: {"inj": (5368, "30ca1d6f68f6a9eb56cc0b886a52ab008f04f502a2ce052d5c5d61d9d62a59ef"),
        "chromatic": (25, "9ef6cd3dfaabe7b1ee50855add1f4ab41d4a3d516f1a597db1f5e2cbdf181331"),
        "oriented": (164, "58e2be9f99a8f498225627287c4d2512ac050261c9748431658a221e5da992dd"),
        "2dipath": 21},
    5: {"inj": (8881, "65f727b951d79126f4c1d970d0873f3b078102088a257056a5a3ecb558437549"),
        "chromatic": (26, "a38cb9155978cc6ace9ab514ea21cd57ce5a730532012a6a28150e564e478a5d"),
        "oriented": (164, "3b986f7d294e054b511ce7988d2251b4c864d7b528e0cc7c1b57793139a3ba0a"),
        "2dipath": 56},
    6: {"inj": (42263, "54f8700afa014d9a8d1e6fcbc79f66388b1f232b97570193697ac8adb4906aed"),
        "chromatic": (27, "a041b6215465081a33a49c96d8b4e47ff24380b62e781bdaf7b5c7980a064734"),
        "oriented": (116, "8c226166a27bfe850b41c57edb4d36ece1c53714a031ea6160fd0511bed55d38"),
        "2dipath": 23},
    7: {"inj": (6586, "468a7d53abd04488b4394b4990f3fe9067e8da5468de1aaf1781df445a3c5ffd"),
        "chromatic": (21, "514dce717154a08bf323a71cdab63192ae2dbeabd7e181d1aa93aed369dbf7d8"),
        "oriented": (30, "cb2f6bfc3f50083d78a7372793f04e244942d39bb9036acc54b72da5aee5a323"),
        "2dipath": 15},
    8: {"inj": (1289, "e003e6a52e1f629b284157b4d197f94b08ee6a0bdfcfc806ec450c0185a6ca8f"),
        "chromatic": (22, "7db9543b115e8d7621d053cf5ed902ef03afcf0ce5c805b2973312524f991d08"),
        "oriented": (81, "2f7f5dff2f5d5ec55a29b88268ae03c29e78f6d024daf11b644a6e4cd9784632"),
        "2dipath": 18},
    9: {"inj": (3879, "c31a45847c6795b4935d4d2f04edef6de94fde20026f075cd182ea10204aac33"),
        "chromatic": (23, "39f8746b133a4877ec26807569bc11377493964227bd3d598cc8b6ac5418c622"),
        "oriented": (34, "b5c5762dd297da079fd21fa7cb28eb5321362c7ec8665b05d06636236b11a0a8"),
        "2dipath": 17},
    10: {"inj": (1929, "998316e0a4bbedf4f26742f80e55c5ce281fa13bd3a13ff4e35903d7ead4fec2"),
         "chromatic": (24, "b9465662df15fc1d71e1e860ed93568792dd9bf715b8691d8c1d41fa60ab31df"),
         "oriented": (79, "4bd7cf338bcf87ae513e68557b0a0d59137b23e90354ad462244853da49b5a71"),
         "2dipath": 19},
    11: {"inj": (1456, "3860546c4e1a50758e4905f0fd2775b9f934b6a5a584dcdf9033535dba70e848"),
         "chromatic": (28, "e4ea4ed31918f5ed2c4fd1a607f0aa1c5df45b0babaea13f5cc25869f37b3959"),
         "oriented": (144, "eb02dfe340e62fb9d64d693d46f87ab86fe58b6ee14ab5a4352d8a4375be9008"),
         "2dipath": 42},
    12: {"inj": (11947, "c82e2d86879193e3e19a711746f2df87c9c8c60247890af4675bf613befcef68"),
         "chromatic": (26, "d57c96edcdc293de6b6b12f49df318a8f8c77878be748cde9fc8b7026b125f9a"),
         "oriented": (486, "cf847888b1d869a256799580811b1b147abcf4858d9d918bd3dd1547e05af98c"),
         "2dipath": 23},
    13: {"inj": (6820, "b144f8eeb18255158e223d354a67592c5a38c923619df541c62a747f58cd87e0"),
         "chromatic": (27, "93ded236e9c80565bd600b4d20d3d8483730e8dfdf69da98dfb369911856c1ec"),
         "oriented": (101, "ca783f490fd5cc376e78e7ce68caa1689243cd2d27d08c86cacda4b1bbe8cd81"),
         "2dipath": 22},
}


@pytest.mark.parametrize("i", sorted(PINNED_SEARCHES))
def test_pool_searches_keep_their_node_counts_and_witnesses(monkeypatch, i):
    # Any change to the search order, or a vertex lost from the uncolored
    # set, moves a node count or a witness here.
    G = random_degenerate_graph(24 + i % 7, 3, 1000 + i)
    D = random_orientation(G, 2000 + i)
    budget = OracleBudget(30, 90)
    deadlines = _record_deadlines(monkeypatch)
    witnesses = {"inj": exact_injective_coloring(G, budget),
                 "chromatic": exact_chromatic_coloring(G, budget),
                 "oriented": exact_oriented_coloring(D, budget)}
    two_dipath = exact_2dipath_number(D, budget)
    assert verify_injective(G, witnesses["inj"])
    assert all(witnesses["chromatic"][u] != witnesses["chromatic"][v] for u, v in G.edges())
    assert verify_oriented_coloring(D, witnesses["oriented"])
    assert two_dipath <= witnesses["oriented"].k
    found = {}
    for (param, coloring), deadline in zip(witnesses.items(), deadlines):
        assert set(coloring.colors.values()) <= set(range(1, coloring.k + 1))
        text = repr(sorted(coloring.colors.items())).encode()
        found[param] = (deadline.nodes, hashlib.sha256(text).hexdigest())
    assert len(deadlines) == 4
    found["2dipath"] = deadlines[3].nodes
    assert found == PINNED_SEARCHES[i]


def _assert_searches_follow_the_definition(n, edges):
    """Every k from the greedy clique's size up to the first that succeeds:
    the search's node count and coloring are the definitional DSATUR's.
    Returns the highest saturation that a step picked."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    vertices = list(range(n))
    clique = oracles._greedy_clique(vertices, adj)
    picked = 0
    for k in range(len(clique), n + 1):
        deadline = _Deadline(60.0)
        colors = oracles._k_colorable(vertices, adj, k, clique, deadline)
        nodes, expected, top = dsatur_reference(n, edges, k, clique)
        assert (deadline.nodes, colors) == (nodes, expected)
        picked = max(picked, top)
        if colors is not None:
            break
    return picked


@settings(max_examples=300, deadline=None)
@given(small_orientations(max_n=10))
def test_search_visits_the_nodes_of_the_dsatur_definition(D):
    _assert_searches_follow_the_definition(D.n, D.underlying().edges())


def _matching_free_clique(t, drop, seed):
    """K_2t minus the perfect matching {2i, 2i + 1}, whose chromatic number
    is t, with each other edge dropped with probability drop."""
    rng = random.Random(seed)
    return [(u, v) for u, v in combinations(range(2 * t), 2) if u ^ 1 != v and rng.random() >= drop]


@pytest.mark.parametrize("t", [8, 9, 16, 17, 32, 33])
def test_saturation_planes_carry_past_each_power_of_two(t):
    # Saturations are binary counters over k.bit_length() planes.  Once the
    # greedy clique of K_2t minus a matching is colored, each other vertex
    # has saturation t - 1, which for t = 9, 17 and 33 carries into the top
    # plane (7 -> 8, 15 -> 16, 31 -> 32).  With edges dropped, vertices of
    # lower saturation and failing k sit beside them.  Every node and color
    # must follow the definition.
    picked = 0
    for seed in range(5):
        drop = 0.0 if seed == 0 else 0.05 if t < 32 else 0.02
        edges = _matching_free_clique(t, drop, seed)
        picked = max(picked, _assert_searches_follow_the_definition(2 * t, edges))
    assert picked >= t - 1


def test_forced_search_is_linear_in_the_component(monkeypatch):
    # k = 2 on a path and on an odd cycle leaves one color for each vertex,
    # so the search places each vertex once (and unwinds the odd cycle once).
    # Each step picks the top bit of the uncolored set narrowed by the
    # saturation planes, O(L/30) digit operations; a Python loop over the
    # component per step would overrun the timeout here.
    budget = OracleBudget(20001, 20001, timeout=10)
    G = path(20000)
    assert exact_chromatic_number(G, budget) == 2
    assert exact_chromatic_number(cycle(20001), budget) == 3
    deadline = _Deadline(10)
    _solve_chromatic(G.n, [G.neighbors(v) for v in range(G.n)], deadline)
    # Two precolored clique vertices, one node per other vertex, one final node.
    assert deadline.nodes == G.n - 1
    # The oriented search on a directed path: k = 3 on its 2-dipath graph,
    # then the same k with the color-pair test on each arc.
    deadlines = _record_deadlines(monkeypatch)
    D = OrientedGraph(1200, [(v, v + 1) for v in range(1199)])
    assert exact_oriented_number(D, OracleBudget(1200, 1200, timeout=10)) == 3
    assert [d.nodes for d in deadlines] == [2396]


def test_a_search_over_the_size_budget_is_refused_before_any_mask(monkeypatch):
    # A search over L vertices keeps an L-bit neighbor mask per vertex, so
    # O(L^2) bits; one over 2^15 + 1 vertices is refused before any is built.
    # (The edges of an odd cycle conflict along one cycle of the same length.)
    def search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(oracles, "_k_colorable", search)
    budget = OracleBudget(2**15 + 2, 2**15 + 2)
    G = path(2**15 + 1)
    D = OrientedGraph(G.n, G.edges())
    calls = ((exact_chromatic_number, G), (exact_injective_index, cycle(2**15 + 1)),
             (exact_2dipath_number, D), (exact_oriented_number, D))
    tracemalloc.start()
    try:
        for oracle, graph in calls:
            with pytest.raises(BudgetExceededError,
                               match="a search over 32769 vertices exceeds the budget 32768"):
                oracle(graph, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The adjacency sets and the 2-dipath graph take about 20 MB; the
    # neighbor masks alone would take about 70 MB more.
    assert peak < 32 << 20
    code, out = run_command(["exact", "--param", "chromatic", "--budget-n", "40000",
                             "--budget-m", "40000"], lambda: emit_graph(path(40000)))
    assert code == 1
    assert json.loads(out) == {"error": "a search over 40000 vertices exceeds the budget 32768"}


def test_the_search_size_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(oracles, "SEARCH_VERTEX_BUDGET", 10)
    budget = OracleBudget(20, 20)
    assert exact_chromatic_number(path(10), budget) == 2
    assert exact_chromatic_number(UndirectedGraph(20), budget) == 1
    assert exact_oriented_number(OrientedGraph(10, [(v, v + 1) for v in range(9)]), budget) == 3
    with pytest.raises(BudgetExceededError, match="a search over 11 vertices"):
        exact_chromatic_number(path(11), budget)
    with pytest.raises(BudgetExceededError, match="a search over 11 vertices"):
        exact_oriented_number(OrientedGraph(11), budget)


def test_long_directed_path_does_not_exhaust_the_call_stack():
    # The searches keep their own trail, so depth 1,200 is no RecursionError.
    D = OrientedGraph(1200, [(v, v + 1) for v in range(1199)])
    assert exact_oriented_number(D, OracleBudget(1200, 1200)) == 3
    code, out = run_command(["exact", "--param", "oriented", "--budget-n", "1200",
                             "--budget-m", "1200"], lambda: emit_graph(D))
    assert code == 0 and json.loads(out) == {"param": "oriented", "value": 3}


def test_empty_and_edgeless_graphs():
    assert exact_chromatic_number(UndirectedGraph(0)) == 0
    assert exact_oriented_number(OrientedGraph(0)) == 0
    assert exact_2dipath_number(OrientedGraph(0)) == 0
    assert exact_injective_index(UndirectedGraph(3)) == 0
    assert exact_chromatic_coloring(UndirectedGraph(0)).colors == {}


def test_chromatic_coloring_ignores_adjacency_insertion_order():
    # Vertex ids up to 60 in small sets collide in the hash table, so a
    # shuffled insertion order changes how the sets iterate.
    rng = random.Random(11)
    reordered = 0
    for _ in range(60):
        n = rng.randint(2, 60)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < rng.choice((0.05, 0.15, 0.3))]
        adjs, colorings = [], []
        for order in (edges, rng.sample(edges, len(edges))):
            adj = [set() for _ in range(n)]
            for u, v in order:
                adj[u].add(v)
                adj[v].add(u)
            adjs.append([list(s) for s in adj])
            colorings.append(_solve_chromatic(n, adj, _Deadline(60.0)))
        assert colorings[0] == colorings[1]
        reordered += adjs[0] != adjs[1]
    assert reordered
