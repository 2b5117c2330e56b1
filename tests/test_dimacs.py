"""The readers' refusals, pinned message by message, and the one-pass parser
and trusted graph builders checked against the validating constructors."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injcolor import (OrientedGraph, UndirectedGraph, VertexOrdering, degeneracy_order,
                      orient_by_ordering)
from injcolor.dimacs import MAX_VERTICES, ParseError, coloring_from_obj, parse_graph
from injcolor.genus import DegeneracyExceedsGenusError, _strip_prefix

GRAPH_REFUSALS = [
    # (graph text, message, line)
    ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem line", 2),
    ("p arc 2 0\np edge 2 0\n", "line 2: duplicate problem line", 2),
    ("c x\np edge 2\n", "line 2: expected 'p edge n m' or 'p arc n m'", 2),
    ("p graph 2 0\n", "line 1: expected 'p edge n m' or 'p arc n m'", 1),
    ("p edge two 0\n", "line 1: n and m must be integers", 1),
    ("p edge -1 0\n", "line 1: n and m must be nonnegative", 1),
    ("p arc 3 -2\n", "line 1: n and m must be nonnegative", 1),
    (f"p edge {MAX_VERTICES + 1} 0\n", "line 1: n exceeds the limit 1000000", 1),
    (f"p arc {MAX_VERTICES + 1} 0\n", "line 1: n exceeds the limit 1000000", 1),
    ("p edge 2 1\na 1 2\n", "line 2: 'a' line in edge mode", 2),
    ("p arc 2 1\ne 1 2\n", "line 2: 'e' line in arc mode", 2),
    ("p edge 2 1\ne 1\n", "line 2: expected two endpoints", 2),
    ("p edge 3 1\ne 1 2 3\n", "line 2: expected two endpoints", 2),
    ("p arc 2 1\na 1\n", "line 2: expected two endpoints", 2),
    ("p arc 3 1\na 1 2 3\n", "line 2: expected two endpoints", 2),
    ("p edge 2 1\ne 1 x\n", "line 2: endpoints must be integers", 2),
    ("p arc 2 1\na 1.0 2\n", "line 2: endpoints must be integers", 2),
    ("p edge 3 1\ne 0 2\n", "line 2: endpoint outside 1..3", 2),
    ("p edge 3 1\ne 1 4\n", "line 2: endpoint outside 1..3", 2),
    ("p arc 3 1\na 2 0\n", "line 2: endpoint outside 1..3", 2),
    ("p arc 3 1\na 4 1\n", "line 2: endpoint outside 1..3", 2),
    ("p edge 2 1\ne 2 2\n", "line 2: self-loop", 2),
    ("p arc 2 1\n\na 1 1\n", "line 3: self-loop", 3),
    # A digon names the later arc in file ids, with its line.
    ("p arc 3 2\na 1 2\na 2 1\n", "line 3: digon between 2 and 1", 3),
    ("p arc 4 3\na 3 4\na 1 2\na 4 3\na 2 1\n", "line 4: digon between 4 and 3", 4),
    # Every line is checked before a digon or the count is reported.
    ("p arc 3 3\na 1 2\na 2 1\na 1 x\n", "line 4: endpoints must be integers", 4),
    ("p arc 3 3\na 1 2\na 2 1\na 3 3\n", "line 4: self-loop", 4),
    ("p arc 3 9\na 1 2\na 2 1\n", "line 3: digon between 2 and 1", 3),
    ("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n",
     "problem line declares 3 edges but 2 distinct ones parsed", None),
    ("p arc 3 3\na 1 2\na 1 2\na 2 3\n",
     "problem line declares 3 edges but 2 distinct ones parsed", None),
    ("p edge 3 1\ne 1 2\ne 2 3\n", "problem line declares 1 edges but 2 distinct ones parsed",
     None),
    ("c hi\ne 1 2\n", "line 2: edge before problem line", 2),
    ("p edge 2 1\nx 1 2\n", "line 2: unrecognized line type 'x'", 2),
    ("p edge 2 1\ncat 1 2\ne 1 2\n", "line 2: unrecognized line type 'cat'", 2),
    ("c only\n\n", "missing problem line", None),
]


@pytest.mark.parametrize("text, message, line", GRAPH_REFUSALS)
def test_parse_graph_refusals(text, message, line):
    with pytest.raises(ParseError) as caught:
        parse_graph(text)
    assert (str(caught.value), caught.value.line) == (message, line)


EDGE_SHAPE = "edge assign entries must be [u, v, color], integers >= 1"
VERTEX_SHAPE = "vertex assign entries must be [v, color], integers >= 1"

COLORING_REFUSALS = [
    # (coloring object, message)
    ({"kind": "edge", "k": 1, "assign": [[1, 2, True]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [[1, 2, 0]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [[1, 2, "a"]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [[1, 2, 1.0]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [[0, 2, 1]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [[1, 2]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [[1, 2, 1, 1]]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": [5]}, EDGE_SHAPE),
    ({"kind": "edge", "k": 1, "assign": {"a": 1}}, EDGE_SHAPE),
    ({"kind": "edge", "k": 2, "assign": [[1, 2, 1], [2, 1, 2]]},
     "coloring JSON lists the same edge twice"),
    ({"kind": "edge", "k": 1, "assign": [[1, 2, 1], [1, 2, 1]]},
     "coloring JSON lists the same edge twice"),
    # A malformed entry anywhere is reported before a repeated one.
    ({"kind": "edge", "k": 2, "assign": [[1, 2, 1], [2, 1, 2], [1, 3, 0]]}, EDGE_SHAPE),
    ({"kind": "vertex", "k": 2, "assign": [[1, 1], [1, 2]]},
     "coloring JSON lists the same vertex twice"),
    ({"kind": "vertex", "k": 2, "assign": [[1, 1], [1, 2], [2]]}, VERTEX_SHAPE),
    ({"kind": "vertex", "k": 1, "assign": [[1, 1, 1]]}, VERTEX_SHAPE),
    ({"kind": "vertex", "k": 1, "assign": [[False, 1]]}, VERTEX_SHAPE),
    ({"kind": "vertex", "k": 1, "assign": [[1, 1.0]]}, VERTEX_SHAPE),
    ({"kind": "vertex", "k": 1, "assign": "[[1, 1]]"}, VERTEX_SHAPE),
    ({"kind": "face", "assign": []}, "unknown coloring kind 'face'"),
    ({"assign": []}, "coloring JSON missing field: 'kind'"),
    ({"kind": "edge"}, "coloring JSON missing field: 'assign'"),
    ([1, 2], "coloring JSON missing field: list indices must be integers or slices, not str"),
]


@pytest.mark.parametrize("obj, message", COLORING_REFUSALS)
def test_coloring_from_obj_refusals(obj, message):
    with pytest.raises(ParseError) as caught:
        coloring_from_obj(obj)
    assert (str(caught.value), caught.value.line) == (message, None)


SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])
NOISE = st.sampled_from(["", "   ", "c", "c some text", "\tc indented", "c\tp edge 1 0"])


@st.composite
def graph_texts(draw, kind):
    """(n, pairs, text): pairs drawn with repeats (and for edges in either
    order; for arcs each vertex pair keeps one direction, so digon-free), and
    the text has comment and blank lines, tabs and repeated lines, with m the
    distinct count."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    if kind == "edge":
        items = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    else:
        flip = {e: draw(st.booleans()) for e in set(chosen)}
        items = [(e[1], e[0]) if flip[e] else e for e in chosen]
    tag = kind[0]
    lines = [draw(NOISE) for _ in range(draw(st.integers(0, 2)))]
    lines.append(f"p{draw(SEPARATORS)}{kind} {n} {len(set(chosen))}")
    for u, v in items:
        lines.extend(draw(NOISE) for _ in range(draw(st.integers(0, 1))))
        sep = draw(SEPARATORS)
        lines.append(f"{draw(st.sampled_from(['', ' ']))}{tag}{sep}{u + 1}{sep}{v + 1}")
    return n, items, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=200, deadline=None)
@given(graph_texts("edge"))
def test_parse_graph_matches_the_validating_constructor_on_edges(case):
    n, items, text = case
    G, reference = parse_graph(text), UndirectedGraph(n, items)
    assert type(G) is UndirectedGraph
    assert (G, G.n, G.m) == (reference, reference.n, reference.m)


@settings(max_examples=200, deadline=None)
@given(graph_texts("arc"))
def test_parse_graph_matches_the_validating_constructor_on_arcs(case):
    n, items, text = case
    D, reference = parse_graph(text), OrientedGraph(n, items)
    assert type(D) is OrientedGraph
    assert (D, D.n, D.m) == (reference, reference.n, reference.m)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda a: a[0] != a[1]), max_size=12))))
def test_parse_graph_reports_the_constructors_digon(case):
    """With digons allowed, the parser refuses exactly what OrientedGraph
    refuses, with its message in file ids and the line of the arc it names,
    and otherwise builds the same graph."""
    n, arcs = case
    text = f"p arc {n} {len(set(arcs))}\n" + "".join(f"a {u + 1} {v + 1}\n" for u, v in arcs)
    try:
        reference = OrientedGraph(n, arcs)
    except ValueError as exc:
        u, v = map(int, re.fullmatch(r"digon between (\d+) and (\d+)", str(exc)).groups())
        line = 2 + next(i for i, (a, b) in enumerate(arcs) if (b, a) in arcs[:i])
        assert arcs[line - 2] == (u, v)
        with pytest.raises(ParseError) as caught:
            parse_graph(text)
        assert (str(caught.value), caught.value.line) == (
            f"line {line}: digon between {u + 1} and {v + 1}", line)
    else:
        D = parse_graph(text)
        assert (D, D.m) == (reference, reference.m)


@st.composite
def orientations(draw, max_n=14, min_n=0, min_m=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min(min_m, len(pairs)),
                          max_size=40)) if pairs else []
    return OrientedGraph(n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(orientations())
def test_underlying_matches_the_validating_constructor(D):
    G, reference = D.underlying(), UndirectedGraph(D.n, D.arcs())
    assert (G, G.n, G.m) == (reference, reference.n, reference.m)


@settings(max_examples=200, deadline=None)
@given(orientations(), st.randoms(use_true_random=False))
def test_orient_by_ordering_matches_the_validating_constructor(D, rng):
    G = D.underlying()
    for ordering in (degeneracy_order(G), VertexOrdering(tuple(rng.sample(range(G.n), G.n)), 0)):
        pos = {v: i for i, v in enumerate(ordering.order)}
        reference = OrientedGraph(G.n, [(u, v) if pos[u] > pos[v] else (v, u)
                                        for u, v in G.edges()])
        oriented = orient_by_ordering(G, ordering)
        assert (oriented, oriented.m) == (reference, reference.m)
    # One vertex short, and (for n >= 2) one vertex twice in its place.
    for order in {ordering.order[1:], ordering.order[1:] + ordering.order[1:2]} if G.n else ():
        with pytest.raises(ValueError):
            orient_by_ordering(G, VertexOrdering(order, 0))


@settings(max_examples=200, deadline=None)
@given(orientations(max_n=24, min_n=13, min_m=13))
def test_stripped_graph_matches_the_validating_constructor(D):
    try:  # V1 is the first 12 vertices at genus 2
        _, _, _, v1, _, stripped = _strip_prefix(D, 2, 0)
    except DegeneracyExceedsGenusError:
        return
    reference = OrientedGraph(D.n, [(a, b) for a, b in D.arcs() if a not in v1 or b not in v1])
    assert (stripped, stripped.m) == (reference, reference.m)
