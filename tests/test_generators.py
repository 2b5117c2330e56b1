import gc
import math
import weakref

import pytest

from injcolor import (
    OracleBudget,
    OrientedGraph,
    complete_graph,
    cycle,
    degeneracy_order,
    edge_probability,
    exact_injective_index,
    genus_of_complete,
    grid_graph,
    pad_with_k5,
    path,
    random_degenerate_graph,
    random_genus_lowerbound,
    random_orientation,
)
from injcolor.dimacs import emit_graph


def test_classical_families():
    assert complete_graph(4).m == 6
    assert path(4).m == 3
    assert cycle(3) == complete_graph(3)
    assert grid_graph(2, 3).m == 7
    with pytest.raises(ValueError):
        complete_graph(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_genus_of_complete():
    assert genus_of_complete(8) == 4
    assert genus_of_complete(9) == 5
    assert genus_of_complete(10) == 7
    assert genus_of_complete(11) == 10
    with pytest.raises(ValueError):
        genus_of_complete(7)


def test_probability_clamps_for_small_n():
    assert edge_probability(100) == 1.0
    D = random_genus_lowerbound(100, 5)
    assert D.m == 100 * 99 // 2  # complete tournament when p clamps to 1


def test_random_genus_lowerbound_digon_free_and_deterministic():
    D = random_genus_lowerbound(40, 9)
    for u, v in D.arcs():
        assert not D.has_arc(v, u)
    assert D == random_genus_lowerbound(40, 9)
    assert D != random_genus_lowerbound(40, 10)
    with pytest.raises(ValueError):
        random_genus_lowerbound(3, 0)
    with pytest.raises(ValueError):
        random_genus_lowerbound(0, 0)


@pytest.mark.parametrize("n, seed", [(40, 0), (40, 9), (40, 10), (1100, 3), (1100, 4)])
def test_array_drawn_graph_matches_the_same_arcs_built_from_sets(n, seed):
    D = random_genus_lowerbound(n, seed)
    text = emit_graph(D)
    assert "_out" not in vars(D)  # emitting reads the arrays, not out-sets
    E = OrientedGraph(n, D.arcs())
    assert text == emit_graph(E)
    assert D.arcs() == E.arcs() and D.m == E.m
    assert D == E
    tails = [set() for _ in range(n)]
    for u, v in E.arcs():
        tails[v].add(u)
    U = D.underlying()  # a vertex's in-neighbors are its neighbors outside its out-set
    assert all(U.neighbors(v) - D.out_neighbors(v) == tails[v] for v in range(n))
    probes = D.arcs() + [(v, u) for u, v in D.arcs()] + [(u, u) for u in range(n)]
    assert all(D.has_arc(u, v) == E.has_arc(u, v) for u, v in probes)
    assert D.max_out_degree == E.max_out_degree
    assert D.underlying().m == E.underlying().m == D.m


def test_oriented_graph_itself_defines_no_out_sets():
    # Anything the class defines for _out (a descriptor, __getattr__) would
    # stop CPython from specializing self._out in every graph's hot methods;
    # only the drawn graph's own class builds its out-sets on first read.
    assert not hasattr(OrientedGraph, "_out")
    assert not hasattr(OrientedGraph, "__getattr__")


@pytest.mark.parametrize("n, seed", [(40, 9), (1100, 3)])
def test_first_adjacency_read_leaves_plain_out_sets_on_a_drawn_graph(n, seed):
    D = random_genus_lowerbound(n, seed)
    assert "_out" not in vars(D)
    D.out_neighbors(0)
    out = vars(D)["_out"]
    assert type(out) is list and all(type(heads) is set for heads in out)
    assert D.out_neighbors(1) is out[1]  # later reads use the same list
    assert out == OrientedGraph(n, D.arcs())._out


def test_random_genus_lowerbound_inclusion_rate():
    # at this size p is unclamped; empirical rate within 3 sigma
    n = 2000
    p = edge_probability(n)
    assert p < 1
    pairs = n * (n - 1) // 2
    sigma = math.sqrt(pairs * p * (1 - p))
    for seed in range(5):
        D = random_genus_lowerbound(n, seed)
        assert abs(D.m - pairs * p) <= 3 * sigma


def test_pad_with_k5():
    G = path(3)
    assert pad_with_k5(G, 0) == G
    padded = pad_with_k5(G, 2)
    assert padded.n == G.n + 10 and padded.m == G.m + 20
    # padding never lowers the injective chromatic index
    budget = OracleBudget(20, 26, 60)
    assert exact_injective_index(padded, budget) >= exact_injective_index(G)
    with pytest.raises(ValueError):
        pad_with_k5(G, -1)


def test_random_degenerate_graph_properties():
    for d in (1, 2, 3):
        G = random_degenerate_graph(50, d, d)
        assert degeneracy_order(G).d <= d
        assert G.n == 50
    assert random_degenerate_graph(50, 2, 7) == random_degenerate_graph(50, 2, 7)


def test_random_orientation_properties():
    G = random_degenerate_graph(30, 2, 0)
    D = random_orientation(G, 1)
    assert D.m == G.m
    assert D.underlying() == G
    assert D == random_orientation(G, 1)


def test_an_array_drawn_graph_is_freed_without_the_collector():
    # run_command pauses the cyclic collector, so a graph must not sit in a
    # reference cycle, with its out-sets read or not.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for read in (False, True):
            D = random_genus_lowerbound(40, 9)
            if read:
                assert D.out_neighbors(0) == {v for u, v in D.arcs() if u == 0}
            alive = weakref.ref(D)
            del D
            assert alive() is None
    finally:
        if collecting:
            gc.enable()
