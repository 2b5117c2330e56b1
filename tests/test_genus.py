import itertools

import pytest

from injcolor import (
    BudgetExceededError,
    DegeneracyExceedsGenusError,
    GenusTooSmallError,
    OracleBudget,
    UndirectedGraph,
    complete_graph,
    degeneracy_order,
    exact_injective_index,
    genus_of_complete,
    grid_graph,
    heawood_degeneracy_bound,
    injective_color_genus,
    oriented_color_genus,
    oriented_color_genus_via_2dipath,
    random_degenerate_graph,
    random_orientation,
    subdivide,
    verify_injective,
    verify_oriented_coloring,
)
from injcolor.injective import _nominal_rounds
from .conftest import random_grid_subgraph


def test_heawood_bound_values():
    assert heawood_degeneracy_bound(2) == 6
    assert heawood_degeneracy_bound(4) == 7
    assert heawood_degeneracy_bound(5) == 8
    assert heawood_degeneracy_bound(7) == 9
    assert heawood_degeneracy_bound(10) == 10


def test_injective_genus_k8():
    K8 = complete_graph(8)
    g = genus_of_complete(8)
    coloring, report = injective_color_genus(K8, g, 0)
    assert report.checks["injective_valid"]
    assert verify_injective(K8, coloring)
    oracle = exact_injective_index(K8, OracleBudget(10, 30, 60))
    assert oracle == 28
    assert coloring.k >= oracle
    assert report.v2_size == 0  # all vertices land in the fresh-color part


def test_injective_genus_planar_grid():
    G = grid_graph(5, 5)
    coloring, report = injective_color_genus(G, 2, 1)
    assert report.checks["injective_valid"]
    assert report.checks["v1_edge_bound_ok"]
    assert verify_injective(G, coloring)
    assert report.v1_size + report.v2_size == 25


@pytest.mark.parametrize("h, k, route", [(16, 12, "singletons"), (20, 16, "singletons"),
                                         (48, 44, "randomized")])
def test_genus_class_routes_on_subdivided_cliques(h, k, route):
    """The midpoints' class of subdivide(K_h) has out-degree d = 2 and the
    largest degree is h - 1, so singleton rounds need 2k <= R =
    ceil(4e * 2 * ln(h - 1)), which holds at k = 12 (24 <= 59) and k = 16
    (32 <= 65) and fails at k = 44 (88 > 84), where color_arcs_randomized
    colors the class."""
    S = subdivide(complete_graph(h))
    coloring, report = injective_color_genus(S, 2, 0)
    assert report.checks["injective_valid"] and verify_injective(S, coloring)
    peel, routes = report.stats["peel_colors"], report.stats["class_routes"]
    tails = max(peel, key=peel.get)
    assert (peel[tails], routes[tails]) == (k, route)
    assert degeneracy_order(S).d == 2 and S.max_degree == h - 1
    assert (2 * k <= _nominal_rounds(2, S.max_degree)) == (route == "singletons")
    assert set(routes) == set(report.phase_colors) - {"v1_fresh"}
    _, oriented = oriented_color_genus(random_orientation(S, 1), 2, 0)
    assert oriented.checks["oriented_valid"]
    assert set(oriented.stats["class_routes"].values()) <= {"singletons", "randomized"}


def test_oriented_genus_colors_a_subdivided_k290():
    """The midpoints' class has 287 peel colors, far more than singleton
    rounds allow at out-degree 2, so color_arcs_randomized colors it."""
    D = random_orientation(subdivide(complete_graph(290)), 1)
    with pytest.warns(UserWarning, match="dishonest"):  # 287 peel colors at g = 2
        coloring, report = oriented_color_genus(D, 2, 0)
    assert report.checks["oriented_valid"] and verify_oriented_coloring(D, coloring)
    assert report.stats["peel_colors"]["class_1"] == 287
    assert report.stats["class_routes"]["class_1"] == "randomized"


def test_injective_genus_colors_a_class_of_out_degree_4():
    """Heads 0..109, hubs 110 and 111, and one tail per head pair joined to
    both heads and both hubs: 6,107 vertices of degeneracy 4, whose tails'
    class has 108 peel colors."""
    edges, tail = [], 112
    for i, j in itertools.combinations(range(110), 2):
        edges += [(tail, i), (tail, j), (tail, 110), (tail, 111)]
        tail += 1
    G = UndirectedGraph(tail, edges)
    assert (G.n, degeneracy_order(G).d) == (6107, 4)
    coloring, report = injective_color_genus(G, 3, 0)
    assert report.checks["injective_valid"] and verify_injective(G, coloring)
    assert report.stats["peel_colors"]["class_1"] == 108


def test_injective_genus_rejects_small_g():
    with pytest.raises(GenusTooSmallError):
        injective_color_genus(complete_graph(4), 1, 0)


def test_injective_genus_rejects_dense_input():
    # K8 needs genus 4; asserting 2 contradicts its degeneracy 7 > 6
    with pytest.raises(DegeneracyExceedsGenusError):
        injective_color_genus(complete_graph(8), 2, 0)


def test_pipelines_refuse_a_vertex_beyond_the_class_caps():
    # Both graphs pass the Heawood degeneracy check; a later vertex then has
    # more out-neighbors than the caps for g allow (6 > 5 at g = 2, 7 > 6 at g = 4).
    with pytest.raises(DegeneracyExceedsGenusError, match="beyond the caps"):
        injective_color_genus(random_degenerate_graph(40, 6, 1), 2)
    with pytest.raises(DegeneracyExceedsGenusError, match="beyond the caps"):
        oriented_color_genus(random_orientation(random_degenerate_graph(60, 7, 1), 1), 4)


def test_pipelines_take_a_genus_up_to_10_to_the_300():
    # Up to 10^300 every float bound in the reports stays finite.
    D = random_orientation(random_degenerate_graph(40, 2, 1), 1)
    pipelines = ((injective_color_genus, D.underlying(), "injective_valid"),
                 (oriented_color_genus, D, "oriented_valid"),
                 (oriented_color_genus_via_2dipath, D, "oriented_valid"))
    for pipeline, graph, check in pipelines:
        _, report = pipeline(graph, 10**300, 1)
        assert report.checks[check] and report.v2_size == 0
        with pytest.raises(ValueError, match="at most 10"):
            pipeline(graph, 10**300 + 1, 1)


def test_oriented_genus_k8_small_branch():
    K8 = complete_graph(8)
    D = random_orientation(K8, 3)
    g = genus_of_complete(8)
    coloring, report = oriented_color_genus(D, g, 0)
    assert report.v2_size == 0
    assert coloring.k == 8
    assert report.checks["oriented_valid"]
    assert verify_oriented_coloring(D, coloring)


def test_oriented_genus_large_sparse():
    G = random_grid_subgraph(7)
    D = random_orientation(G, 8)
    coloring, report = oriented_color_genus(D, 2, 1)
    assert report.checks["oriented_valid"]
    assert report.checks["count_within_6g_plus_4_pow_k"]
    assert verify_oriented_coloring(D, coloring)
    assert report.v1_size == 12 and report.v2_size == 88


def test_oriented_genus_rejects_small_g():
    D = random_orientation(complete_graph(4), 0)
    with pytest.raises(GenusTooSmallError):
        oriented_color_genus(D, 0, 0)


def test_via_2dipath_certified_route():
    G = random_grid_subgraph(5)
    assert degeneracy_order(G).d <= 2
    D = random_orientation(G, 2)
    coloring, report = oriented_color_genus_via_2dipath(D, 2, 4)
    assert report.checks["oriented_valid"]
    assert report.stats["certified_target"]
    assert report.stats["route"] == "certified_full_graph"
    assert verify_oriented_coloring(D, coloring)
    k = max(5, report.stats["two_dipath_colors"])
    assert report.phase_colors["target_parts"] == k
    target_total = report.phase_colors["target_parts"] * report.phase_colors["target_part_size"]
    assert report.phase_colors["base_oriented"] <= target_total
    assert coloring.k <= 6 * 2 + target_total


def test_via_2dipath_budget_and_uncertified():
    G = random_degenerate_graph(60, 3, 4)
    D = random_orientation(G, 4)
    with pytest.raises(BudgetExceededError):
        oriented_color_genus_via_2dipath(D, 2, 0)
    coloring, report = oriented_color_genus_via_2dipath(
        D, 2, 0, allow_uncertified_full=True
    )
    assert report.checks["oriented_valid"]
    assert not report.stats["certified_target"]
    assert report.stats["route"] == "uncertified_full_graph"
    assert verify_oriented_coloring(D, coloring)


def test_via_2dipath_small_instance():
    D = random_orientation(complete_graph(5), 1)
    coloring, report = oriented_color_genus_via_2dipath(D, 2, 0)
    # n = 5 <= 12 = 6g, so the stripped graph is edgeless
    assert report.stats["route"] == "edgeless"
    assert report.checks["oriented_valid"]


def test_pipeline_reports_are_serializable():
    import json

    G = grid_graph(4, 4)
    _, report = injective_color_genus(G, 2, 0)
    json.dumps(report.to_dict())
    D = random_orientation(G, 0)
    _, report2 = oriented_color_genus(D, 2, 0)
    json.dumps(report2.to_dict())


def test_pipelines_deterministic():
    G = random_grid_subgraph(13)
    c1, _ = injective_color_genus(G, 3, 5)
    c2, _ = injective_color_genus(G, 3, 5)
    assert c1 == c2
    D = random_orientation(G, 4)
    o1, _ = oriented_color_genus(D, 3, 5)
    o2, _ = oriented_color_genus(D, 3, 5)
    assert o1 == o2
