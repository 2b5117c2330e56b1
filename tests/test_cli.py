import gc
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from injcolor import (
    BudgetExceededError,
    EdgeColoring,
    FamilyConstructionError,
    FamilyTooWeakError,
    FullGraphConstructionError,
    InjcolorError,
    NoWitnessError,
    OrientedGraph,
    RoundLimitExceededError,
    UndirectedGraph,
    VertexColoring,
    complete_graph,
    cycle,
    injective_color_degenerate,
    random_degenerate_graph,
    random_orientation,
)
from injcolor import cli
from injcolor.cli import run_command
from injcolor.dimacs import (ParseError, coloring_from_obj, coloring_to_json, coloring_to_obj,
                             emit_graph, parse_graph)

from .bruteforce import dimacs_text


def run(argv, stdin=None):
    return run_command(argv, (lambda: stdin) if stdin is not None else (lambda: ""))


def test_parse_examples():
    G = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
    assert isinstance(G, UndirectedGraph) and (G.n, G.m) == (3, 2)
    D = parse_graph("p arc 2 1\na 1 2\n")
    assert isinstance(D, OrientedGraph) and D.has_arc(0, 1)
    with pytest.raises(ParseError):
        parse_graph("p arc 2 2\na 1 2\na 2 1\n")  # digon
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ne 1 1\n")  # loop
    with pytest.raises(ParseError):
        parse_graph("e 1 2\n")  # edge before problem line
    with pytest.raises(ParseError):
        parse_graph("p edge 2 2\ne 1 2\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\na 1 2\n")  # arc line in edge mode


def test_graph_round_trip():
    for G in (complete_graph(5), cycle(7), random_degenerate_graph(20, 2, 3)):
        assert parse_graph(emit_graph(G)) == G
    D = random_orientation(cycle(6), 1)
    assert parse_graph(emit_graph(D)) == D


@st.composite
def graphs_with_pairs(draw):
    """An undirected or an arbitrarily oriented graph on up to 10 vertices,
    with its DIMACS kind and its edges as (min, max) or its arcs."""
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        return UndirectedGraph(n, edges), "edge", edges
    arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in edges]
    return OrientedGraph(n, arcs), "arc", arcs


def any_graphs():
    return graphs_with_pairs().map(lambda drawn: drawn[0])


@settings(max_examples=150, deadline=None)
@given(any_graphs())
def test_emit_parse_round_trip(G):
    parsed = parse_graph(emit_graph(G))
    assert type(parsed) is type(G) and parsed == G


@settings(max_examples=150, deadline=None)
@given(graphs_with_pairs())
@example((UndirectedGraph(0), "edge", []))
@example((OrientedGraph(0), "arc", []))
@example((UndirectedGraph(4), "edge", []))
@example((OrientedGraph(5, [(3, 1)]), "arc", [(3, 1)]))
@example((UndirectedGraph(12, [(10, 2), (0, 11)]), "edge", [(2, 10), (0, 11)]))
def test_emit_graph_matches_one_line_per_pair(drawn):
    G, kind, pairs = drawn
    assert emit_graph(G) == dimacs_text(G.n, pairs, kind)
    header = f"c drawn n={G.n}\nc {kind}\n"
    assert emit_graph(G, header) == header + dimacs_text(G.n, pairs, kind)


_EDGE = "p edge 2 1\ne 1 2\n"
_EDGE_COLORING = {"kind": "edge", "k": 1, "assign": [[1, 2, 1]]}


@pytest.mark.parametrize("graph, coloring, message", [
    ("p edge 2 1\np edge 2 1\ne 1 2\n", _EDGE_COLORING, "duplicate problem line"),
    ("p edge 2\ne 1 2\n", _EDGE_COLORING, "expected 'p edge n m'"),
    ("p graph 2 1\ne 1 2\n", _EDGE_COLORING, "expected 'p edge n m'"),
    ("p edge two 1\ne 1 2\n", _EDGE_COLORING, "n and m must be integers"),
    ("p edge 2 -1\ne 1 2\n", _EDGE_COLORING, "n and m must be nonnegative"),
    ("p edge 2 1\ne 1 2 2\n", _EDGE_COLORING, "expected two endpoints"),
    ("p edge 2 1\ne 1 x\n", _EDGE_COLORING, "endpoints must be integers"),
    ("p edge 2 1\ne 1 3\n", _EDGE_COLORING, "endpoint outside 1..2"),
    ("p edge 2 1\ne 0 2\n", _EDGE_COLORING, "endpoint outside 1..2"),
    ("c no problem line\n", _EDGE_COLORING, "missing problem line"),
    (_EDGE, {"kind": "edge", "k": 1}, "coloring JSON missing field"),
    (_EDGE, [[1, 2, 1]], "coloring JSON missing field"),
    (_EDGE, {"kind": "edge", "k": 1, "assign": [[1, 2]]}, "must be [u, v, color]"),
    (_EDGE, {"kind": "vertex", "k": 1, "assign": [[1]]}, "must be [v, color]"),
    (_EDGE, {"kind": "face", "k": 1, "assign": []}, "unknown coloring kind"),
    ("p edge 200000000 0\n", _EDGE_COLORING, "n exceeds the limit 1000000"),
    (_EDGE, {"kind": "edge", "k": 1, "assign": [[1, 2, "a"]]}, "must be [u, v, color]"),
    (_EDGE, {"kind": "edge", "k": 1, "assign": [[True, 2, 1]]}, "must be [u, v, color]"),
    (_EDGE, {"kind": "edge", "k": 1, "assign": [[1, 2, 2.5]]}, "must be [u, v, color]"),
    (_EDGE, {"kind": "edge", "k": 1, "assign": [[1, 2, 0]]}, "integers >= 1"),
    (_EDGE, {"kind": "edge", "k": 1, "assign": [[1, 2, -3]]}, "integers >= 1"),
    (_EDGE, {"kind": "edge", "k": 2, "assign": [[1, 2, 1], [2, 1, 2]]},
     "lists the same edge twice"),
    (_EDGE, {"kind": "vertex", "k": 2, "assign": [[1, 0], [2, 1]]}, "integers >= 1"),
    (_EDGE, {"kind": "vertex", "k": 2, "assign": [[1, 1], [1, 2]]},
     "lists the same vertex twice"),
    (_EDGE, {"kind": "edge", "k": 2, "assign": [[1, 2, 1], [1, 2, 2]]},
     "lists the same edge twice"),
    # Every entry's shape is checked before repeats are counted.
    (_EDGE, {"kind": "edge", "k": 2, "assign": [[1, 2, 1], [2, 1, 2], [1, 2]]},
     "must be [u, v, color]"),
])
def test_malformed_input_exits_1_with_json_error(tmp_path, graph, coloring, message):
    gpath = tmp_path / "graph.gr"
    cpath = tmp_path / "coloring.json"
    gpath.write_text(graph)
    cpath.write_text(json.dumps(coloring))
    code, out = run(["verify", "--kind", "inj", str(cpath), str(gpath)])
    assert code == 1 and message in json.loads(out)["error"]


_NON_INTEGERS = ("x", "1.5", "one", "2e3", "0x1", "--", "1,2", "nan")
# Non-integer JSON values: strings (including "1"), true and 2.0 (which
# Python compares equal to 1 and 2), null and a list.
_NON_INTEGER_JSON = _NON_INTEGERS + ("1", True, 2.0, None, [1])


@st.composite
def malformed_graph_texts(draw):
    """A valid graph text on at most 6 vertices with exactly one defect, and
    a command that parses it first.  Every defect alone is malformed, and a
    single one cannot cancel itself."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    mode, letter, argv = draw(st.sampled_from([
        ("edge", "e", ["inj-degenerate"]), ("arc", "a", ["exact", "--param", "oriented"])]))
    lines = [["p", mode, str(n), str(len(edges))]] + [[letter, str(u), str(v)] for u, v in edges]
    defect = draw(st.sampled_from(["drop", "extra", "non-integer", "out-of-range",
                                   "duplicate-p", "unknown-type", "over-cap"]))
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    line = lines[i]
    if defect == "drop":
        del line[draw(st.integers(min_value=0, max_value=len(line) - 1))]
    elif defect == "extra":
        line.insert(draw(st.integers(min_value=1, max_value=len(line))), "1")
    elif defect == "non-integer":
        line[draw(st.integers(min_value=len(line) - 2, max_value=len(line) - 1))] = \
            draw(st.sampled_from(_NON_INTEGERS))
    elif defect == "out-of-range":
        j = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        lines[j][draw(st.sampled_from([1, 2]))] = str(draw(st.sampled_from([0, -1, n + 1, 10 * n])))
    elif defect == "duplicate-p":
        lines.insert(i + 1, ["p", mode, str(n), str(draw(st.integers(0, 3)))])
    elif defect == "unknown-type":
        lines.insert(i, [draw(st.sampled_from(["x", "q", "E", "C", "#", "%", "edge"])), "1", "2"])
    else:
        lines[0][2] = str(draw(st.integers(min_value=10**6 + 1, max_value=2 * 10**6)))
    return argv, "".join(" ".join(fields) + "\n" for fields in lines)


_EDGE_PATH = "p edge 3 2\ne 1 2\ne 2 3\n"


@st.composite
def malformed_coloring_texts(draw):
    """Coloring JSON text for the graph _EDGE_PATH that the parser or the
    injective verifier must refuse."""
    good = {"kind": "edge", "k": 2, "assign": [[1, 2, 1], [2, 3, 2]]}
    defect = draw(st.sampled_from(["missing-field", "drop", "extra", "non-integer",
                                   "out-of-range", "not-an-object", "unknown-kind",
                                   "truncated"]))
    obj: object = good
    if defect == "missing-field":
        missing = draw(st.sampled_from(["kind", "assign"]))
        obj = {key: value for key, value in good.items() if key != missing}
    elif defect in ("drop", "extra", "non-integer"):
        entry = list(good["assign"][0])
        if defect == "drop":
            del entry[draw(st.integers(min_value=0, max_value=2))]
        elif defect == "extra":
            entry.append(1)
        else:
            entry[draw(st.integers(min_value=0, max_value=2))] = draw(st.sampled_from(_NON_INTEGER_JSON))
        obj = dict(good, assign=[entry, good["assign"][1]])
    elif defect == "out-of-range":
        far = draw(st.sampled_from([[0, 1, 3], [3, 4, 3], [1, 3, 3], [-1, 2, 3]]))
        obj = dict(good, assign=good["assign"] + [far])
    elif defect == "not-an-object":
        obj = draw(st.sampled_from([[], [[1, 2, 1]], "edge", 7, None, True]))
    elif defect == "unknown-kind":
        obj = dict(good, kind=draw(st.sampled_from(["face", "Edge", "", None, 1])))
    text = json.dumps(obj)
    if defect == "truncated":
        text = text[:draw(st.integers(min_value=0, max_value=len(text) - 1))]
    return text


@settings(max_examples=300, deadline=None)
@given(malformed_graph_texts())
def test_malformed_graph_text_exits_1_with_json_error(case):
    argv, text = case
    code, out = run(argv, text)
    assert code == 1 and json.loads(out)["error"]


@settings(max_examples=150, deadline=None)
@given(malformed_coloring_texts())
def test_malformed_coloring_json_exits_1_with_json_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        cpath, gpath = Path(tmp, "coloring.json"), Path(tmp, "graph.gr")
        cpath.write_text(text)
        gpath.write_text(_EDGE_PATH)
        code, out = run(["verify", "--kind", "inj", str(cpath), str(gpath)])
    assert code == 1 and json.loads(out)["error"]


def test_coloring_json_round_trip():
    ec = EdgeColoring({(0, 1): 2, (1, 2): 1})
    assert coloring_from_obj(coloring_to_obj(ec)) == ec
    from injcolor import VertexColoring

    vc = VertexColoring({0: 1, 1: 2})
    assert coloring_from_obj(coloring_to_obj(vc)) == vc


def test_exact_subcommand():
    code, out = run(["exact", "--param", "inj"], emit_graph(complete_graph(4)))
    assert code == 0 and json.loads(out)["value"] == 6
    code, out = run(["exact", "--param", "chromatic"], emit_graph(cycle(5)))
    assert json.loads(out)["value"] == 3
    code, out = run(["exact", "--param", "oriented"], "p arc 3 3\na 1 2\na 2 3\na 3 1\n")
    assert json.loads(out)["value"] == 3
    code, out = run(["exact", "--param", "2dipath"], "p arc 3 2\na 1 2\na 2 3\n")
    assert json.loads(out)["value"] == 3
    # wrong mode
    code, out = run(["exact", "--param", "inj"], "p arc 2 1\na 1 2\n")
    assert code == 1 and "error" in json.loads(out)


def test_inj_degenerate_subcommand():
    code, out = run(["inj-degenerate", "--seed", "7"], emit_graph(complete_graph(4)))
    obj = json.loads(out)
    assert code == 0 and obj["valid"] and obj["colors"] >= 6


def test_genus_subcommands():
    code, out = run(["inj-genus", "--g", "4", "--seed", "1"], emit_graph(complete_graph(8)))
    obj = json.loads(out)
    assert code == 0 and obj["valid"] and obj["colors"] >= 28
    code, out = run(["inj-genus", "--seed", "1"], emit_graph(complete_graph(8)))
    assert code == 1  # --g required
    code, out = run(["inj-genus", "--g", "1"], emit_graph(complete_graph(4)))
    assert code == 1  # genus too small

    D = random_orientation(complete_graph(8), 2)
    code, out = run(["oriented-genus", "--g", "4", "--seed", "1"], emit_graph(D))
    obj = json.loads(out)
    assert code == 0 and obj["valid"] and obj["colors"] == 8


def test_subdivide_subcommand():
    code, out = run(["subdivide"], emit_graph(complete_graph(3)))
    assert code == 0
    sub = parse_graph(out)
    assert (sub.n, sub.m) == (6, 6)


def test_verify_subcommand(tmp_path):
    G = complete_graph(4)
    coloring = injective_color_degenerate(G, 0)
    cpath = tmp_path / "coloring.json"
    gpath = tmp_path / "graph.gr"
    cpath.write_text(json.dumps(coloring_to_obj(coloring)))
    gpath.write_text(emit_graph(G))
    code, out = run(["verify", "--kind", "inj", str(cpath), str(gpath)])
    assert code == 0 and json.loads(out)["valid"]

    bad = EdgeColoring({e: 1 for e in G.edges()})
    cpath.write_text(json.dumps(coloring_to_obj(bad)))
    code, out = run(["verify", "--kind", "inj", str(cpath), str(gpath)])
    assert code == 2 and not json.loads(out)["valid"]


def test_oriented_from_inj_subcommand(tmp_path):
    G = complete_graph(4)
    D = random_orientation(G, 5)
    coloring = injective_color_degenerate(G, 1)
    cpath = tmp_path / "inj.json"
    cpath.write_text(json.dumps(coloring_to_obj(coloring)))
    code, out = run(
        ["oriented-from-inj", "--coloring", str(cpath)], emit_graph(D)
    )
    obj = json.loads(out)
    assert code == 0 and obj["valid"]


def test_oriented_from_inj_rejects_bad_colorings(tmp_path):
    # The CLI verifies a user's edge coloring before building from it.
    triangle = "p arc 3 3\na 1 2\na 2 3\na 3 1\n"
    dipath = "p arc 3 2\na 1 2\na 2 3\n"
    cases = [
        (triangle, [[1, 2, 1], [2, 3, 1], [1, 3, 1]], "not injective"),
        (dipath, [[1, 2, 1]], "has no color"),
        (dipath, [[1, 2, 1], [2, 3, 2], [1, 3, 3]], "non-edges"),
        ("p arc 3 2\na 1 2\na 1 3\n", [[1, 2, "a"], [1, 3, 1]], "must be [u, v, color]"),
    ]
    cpath = tmp_path / "inj.json"
    for graph, assign, message in cases:
        cpath.write_text(json.dumps({"kind": "edge", "k": 1, "assign": assign}))
        code, out = run(["oriented-from-inj", "--coloring", str(cpath)], graph)
        assert code == 1 and message in json.loads(out)["error"]


_ARC = "p arc 2 1\na 1 2\n"
_DIPATH = "p arc 3 2\na 1 2\na 2 3\n"
_VERIFY = ["verify", "--kind", "{kind}", "{coloring}", "{graph}"]
_FROM_INJ = ["oriented-from-inj", "--coloring", "{coloring}"]


@pytest.mark.parametrize("argv, kind, graph, assign, message", [
    (_VERIFY, "oriented", _ARC, [[1, 1], [2, 2], [9, 3]], "colored non-vertices present, e.g. 9"),
    (_VERIFY, "2dipath", _ARC, [[1, 1], [2, 2], [9, 3]], "colored non-vertices present, e.g. 9"),
    (_VERIFY, "oriented", _DIPATH, [[1, 1], [2, 2]], "vertex 3 has no color"),
    (_VERIFY, "2dipath", _DIPATH, [[1, 1], [2, 2]], "vertex 3 has no color"),
    (_VERIFY, "inj", _EDGE_PATH, [[1, 2, 1]], "edge (2, 3) has no color"),
    (_VERIFY, "inj", _EDGE_PATH, [[1, 2, 1], [2, 3, 2], [3, 1, 3]],
     "colored non-edges present, e.g. (1, 3)"),
    (_FROM_INJ, None, _DIPATH, [[1, 2, 1]], "edge (2, 3) has no color"),
    (_FROM_INJ, None, _DIPATH, [[1, 2, 1], [2, 3, 2], [1, 3, 3]],
     "colored non-edges present, e.g. (1, 3)"),
    (_VERIFY, "inj", _EDGE_PATH, [[1, 3, 2], [1, 2, 1]], "edge (2, 3) has no color"),
], ids=["oriented-extra-vertex", "2dipath-extra-vertex", "oriented-uncolored",
        "2dipath-uncolored", "inj-uncolored", "inj-non-edge", "from-inj-uncolored",
        "from-inj-non-edge", "inj-uncolored-and-non-edge"])
def test_coloring_must_match_the_graph_in_one_based_ids(tmp_path, argv, kind, graph, assign,
                                                       message):
    cpath, gpath = tmp_path / "coloring.json", tmp_path / "graph.gr"
    what = "edge" if len(assign[0]) == 3 else "vertex"
    cpath.write_text(json.dumps({"kind": what, "k": 3, "assign": assign}))
    gpath.write_text(graph)
    argv = [arg.format(kind=kind, coloring=cpath, graph=gpath) for arg in argv]
    code, out = run(argv, graph)
    assert code == 1 and json.loads(out) == {"error": message}


def test_verify_scans_a_valid_coloring_file_once(tmp_path, monkeypatch):
    G = random_degenerate_graph(40, 2, 3)
    cpath, gpath = tmp_path / "inj.json", tmp_path / "graph.gr"
    cpath.write_text(json.dumps(coloring_to_obj(injective_color_degenerate(G, 0))))
    gpath.write_text(emit_graph(G))
    calls = []
    has_edge = UndirectedGraph.has_edge

    def counted(self, u, v):
        calls.append((u, v))
        return has_edge(self, u, v)

    monkeypatch.setattr(UndirectedGraph, "has_edge", counted)
    code, out = run(["verify", "--kind", "inj", str(cpath), str(gpath)])
    assert code == 0 and json.loads(out)["valid"] and len(calls) == G.m


@pytest.mark.parametrize("argv", [_VERIFY, _FROM_INJ], ids=["verify-oriented", "from-inj"])
def test_deeply_nested_coloring_json_exits_1_with_json_error(tmp_path, argv):
    # json.load gives up on deep nesting with a RecursionError.
    cpath, gpath = tmp_path / "coloring.json", tmp_path / "graph.gr"
    cpath.write_text("[" * 5000 + "]" * 5000)
    gpath.write_text(_ARC)
    argv = [arg.format(kind="oriented", coloring=cpath, graph=gpath) for arg in argv]
    code, out = run(argv, _ARC)
    assert code == 1 and json.loads(out) == {"error": "coloring JSON nests too deeply"}


def test_oriented_from_inj_builds_the_underlying_graph_once(tmp_path, monkeypatch):
    G = random_degenerate_graph(40, 2, 3)
    cpath = tmp_path / "inj.json"
    cpath.write_text(json.dumps(coloring_to_obj(injective_color_degenerate(G, 0))))
    builds = []
    underlying = OrientedGraph.underlying

    def counted(self):
        builds.append(self)
        return underlying(self)

    monkeypatch.setattr(OrientedGraph, "underlying", counted)
    code, out = run(["oriented-from-inj", "--coloring", str(cpath)],
                    emit_graph(random_orientation(G, 4)))
    assert code == 0 and json.loads(out)["valid"] and len(builds) == 1


@pytest.mark.parametrize("argv, graph, message", [
    (["exact", "--param", "inj"], _ARC, "needs an undirected (p edge) graph"),
    (["exact", "--param", "chromatic"], _ARC, "needs an undirected (p edge) graph"),
    (["exact", "--param", "oriented"], _EDGE_PATH, "needs an oriented (p arc) graph"),
    (["exact", "--param", "2dipath"], _EDGE_PATH, "needs an oriented (p arc) graph"),
    (["verify", "--kind", "inj", "{vertex}", "{arc}"], "", "needs an undirected (p edge) graph"),
    (["verify", "--kind", "oriented", "{vertex}", "{edge}"], "", "needs an oriented (p arc) graph"),
    (["verify", "--kind", "2dipath", "{vertex}", "{edge}"], "", "needs an oriented (p arc) graph"),
    (["verify", "--kind", "inj", "{vertex}", "{edge}"], "", "needs an edge coloring"),
    (["verify", "--kind", "oriented", "{edge_coloring}", "{arc}"], "", "needs a vertex coloring"),
    (["verify", "--kind", "2dipath", "{edge_coloring}", "{arc}"], "", "needs a vertex coloring"),
], ids=["exact-inj", "exact-chromatic", "exact-oriented", "exact-2dipath", "verify-inj-arc-graph",
        "verify-oriented-edge-graph", "verify-2dipath-edge-graph", "verify-inj-vertex-coloring",
        "verify-oriented-edge-coloring", "verify-2dipath-edge-coloring"])
def test_kind_mismatches_exit_1_with_json_error(tmp_path, argv, graph, message):
    files = {"vertex": json.dumps({"kind": "vertex", "k": 2, "assign": [[1, 1], [2, 2]]}),
             "edge_coloring": json.dumps(_EDGE_COLORING), "arc": _ARC, "edge": _EDGE}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: tmp_path / name for name in files}) for arg in argv]
    code, out = run(argv, graph)
    assert code == 1 and message in json.loads(out)["error"]


def test_comment_lines_need_a_c_token():
    G = parse_graph("c\nc some text\n\tc indented\np edge 2 1\ne 1 2\n")
    assert (G.n, G.m) == (2, 1)
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ncat 1 2\ne 1 2\n")
    code, out = run(["inj-degenerate"], "p edge 3 1\ne 1 2\ncat 2 3\n")
    assert code == 1 and "cat" in json.loads(out)["error"]


def test_gen_subcommands():
    code, out = run(["gen", "--family", "complete", "--n", "4"])
    assert code == 0 and parse_graph(out).m == 6
    code, out = run(["gen", "--family", "path", "--n", "4"])
    assert parse_graph(out).m == 3
    code, out = run(["gen", "--family", "cycle", "--n", "3"])
    assert parse_graph(out) == complete_graph(3)
    code, out = run(["gen", "--family", "random-genus-lb", "--n", "30", "--seed", "4"])
    assert code == 0
    D = parse_graph(out)
    assert isinstance(D, OrientedGraph)
    code, out = run(["gen", "--family", "k5-padding", "--copies", "2"], emit_graph(complete_graph(3)))
    G = parse_graph(out)
    assert (G.n, G.m) == (13, 23)
    code, out = run(["gen", "--family", "cycle"])
    assert code == 1  # missing --n


def test_gen_random_genus_lb_refuses_a_negative_seed():
    code, out = run(["gen", "--family", "random-genus-lb", "--n", "30", "--seed", "-1"])
    assert code == 1 and json.loads(out) == {"error": "seed -1 is negative; it must be 0 or more"}


def test_family_and_full_graph_subcommands():
    code, out = run(["family", "--k", "5", "--r", "2", "--seed", "0"])
    obj = json.loads(out)
    assert code == 0 and obj["size"] <= 18 and obj["valid"]
    code, out = run(["full-graph", "--k", "5", "--d", "2", "--seed", "0"])
    obj = json.loads(out)
    assert code == 0 and obj["part_size"] == 104 and obj["verified"]
    code, out = run(["full-graph", "--k", "4", "--d", "2"])
    assert code == 1


def test_full_graph_over_budget_is_refused_at_once():
    start = time.perf_counter()
    code, out = run(["full-graph", "--k", "5", "--d", "3"])
    assert code == 1 and "4125 vertices exceeds the budget 4096" in json.loads(out)["error"]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, message", [
    (["family", "--k", "30", "--r", "8"], "46823400 pairs, beyond the budget 1000000"),
    (["full-graph", "--k", "100", "--d", "2"], "29500 vertices exceeds the budget 4096"),
    (["full-graph", "--k", "5", "--d", "400"], "order 400 exceeds the budget 4096"),
    (["family", "--k", "100", "--r", "100"], "12518200 coin flips, beyond the budget 1000000"),
    # the flips are refused before C(k-1, r-1) is computed or printed
    (["family", "--k", "100000", "--r", "50000"], "coin flips, beyond the budget 1000000"),
    (["family", "--k", "1000000", "--r", "500000"], "coin flips, beyond the budget 1000000"),
    (["family", "--k", "-3", "--r", "2"], "universe size k=-3 must be at least 1"),
])
def test_oversized_builds_are_refused_at_once(argv, message):
    start = time.perf_counter()
    code, out = run(argv)
    assert code == 1 and message in json.loads(out)["error"]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, stdin, message", [
    (["gen", "--family", "complete", "--n", "100000"], "", "4999950000 vertex pairs"),
    (["gen", "--family", "random-genus-lb", "--n", "2450"], "", "3000025 vertex pairs"),
    (["gen", "--family", "path", "--n", "2000000"], "", "2000000 vertices exceeds"),
    (["gen", "--family", "k5-padding", "--copies", "200000"], "p edge 1 0\n",
     "1000001 vertices exceeds"),
])
def test_gen_refuses_unbounded_output_at_once(argv, stdin, message):
    start = time.perf_counter()
    code, out = run(argv, stdin)
    assert code == 1 and message in json.loads(out)["error"]
    assert time.perf_counter() - start < 1


def test_gen_size_limits_are_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "GEN_PAIR_BUDGET", 10)
    monkeypatch.setattr(cli, "MAX_VERTICES", 20)
    assert parse_graph(run(["gen", "--family", "complete", "--n", "5"])[1]).m == 10
    assert run(["gen", "--family", "complete", "--n", "6"])[0] == 1
    assert run(["gen", "--family", "random-genus-lb", "--n", "6"])[0] == 1
    assert parse_graph(run(["gen", "--family", "cycle", "--n", "20"])[1]).n == 20
    assert run(["gen", "--family", "cycle", "--n", "21"])[0] == 1
    base = "p edge 15 0\n"
    assert parse_graph(run(["gen", "--family", "k5-padding", "--copies", "1"], base)[1]).n == 20
    assert run(["gen", "--family", "k5-padding", "--copies", "2"], base)[0] == 1


@pytest.mark.parametrize("command", ["inj-genus", "oriented-genus", "oriented-2dipath"])
def test_genus_commands_refuse_a_genus_beyond_float_range(command):
    # The reports' bounds are floats; a 401-digit g would overflow them.
    G = cycle(50)
    graph = emit_graph(G if command == "inj-genus" else random_orientation(G, 1))
    code, out = run([command, "--g", "1" * 401], graph)
    assert code == 1
    assert json.loads(out) == {"error": "the pipelines take an asserted genus of at most 10^300"}


def test_help_is_returned_not_printed(capsys, monkeypatch):
    for argv, usage in ((["--help"], "usage: injcolor [-h]"),
                        (["verify", "--help"], "usage: injcolor verify [-h]")):
        code, out = run(argv)
        assert code == 0 and out.startswith(usage)
    assert capsys.readouterr().out == ""
    # The console script still prints the usage and exits 0.
    monkeypatch.setattr("sys.argv", ["injcolor", "--help"])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage: injcolor")


def test_text_format():
    code, out = run(["exact", "--param", "inj", "--format", "text"], emit_graph(complete_graph(4)))
    assert code == 0 and "value: 6" in out


def _stdlib_json(out):
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _stdlib_text(obj, prefix=""):
    """The --format text lines of a parsed JSON report, flattened here."""
    if not isinstance(obj, dict):
        return [f"{prefix[:-1]}: {obj}"]
    return [line for key in sorted(obj) for line in _stdlib_text(obj[key], f"{prefix}{key}.")]


def test_stdout_is_the_stdlib_rendering_of_the_report(tmp_path):
    G = random_degenerate_graph(40, 3, 2)
    D = random_orientation(G, 2)
    code, out = run(["inj-degenerate", "--seed", "1"], emit_graph(G))
    assert code == 0 and json.loads(out)["coloring"]["kind"] == "edge"
    coloring_file = tmp_path / "inj.json"
    coloring_file.write_text(json.dumps(json.loads(out)["coloring"]))
    cases = [
        (["inj-degenerate", "--seed", "1"], emit_graph(G), 0, "edge"),
        (["oriented-genus", "--g", "4"], emit_graph(random_orientation(cycle(30), 1)), 0,
         "vertex"),
        (["oriented-from-inj", "--coloring", str(coloring_file)], emit_graph(D), 0, "vertex"),
        (["inj-degenerate"], "p edge 3 0\n", 0, "edge"),
        (["inj-degenerate"], "p edge 3 1\ne 1 4\n", 1, None),
    ]
    for argv, stdin, expected_code, kind in cases:
        code, out = run(argv, stdin)
        assert code == expected_code and out == _stdlib_json(out)
        obj = json.loads(out)
        assert obj.get("coloring", {}).get("kind") == kind
        code, text = run(argv + ["--format", "text"], stdin)
        assert code == expected_code and text == "\n".join(_stdlib_text(obj)) + "\n"
    assert json.loads(run(["inj-degenerate"], "p edge 3 0\n")[1])["coloring"] == {
        "assign": [], "k": 0, "kind": "edge"}


@pytest.mark.parametrize("graph", ["p edge 0 0\n", "p edge 1 0\n"])
def test_inj_degenerate_colors_the_empty_and_the_one_vertex_graph(graph):
    code, out = run(["inj-degenerate", "--seed", "1"], graph)
    obj = json.loads(out)
    assert code == 0 and obj["colors"] == 0 and obj["valid"] is True
    assert obj["coloring"] == {"assign": [], "k": 0, "kind": "edge"}


@settings(max_examples=100, deadline=None)
@given(any_graphs(), st.integers(min_value=0, max_value=3))
def test_stdout_of_random_graphs_is_the_stdlib_rendering(G, seed):
    argv = ["inj-degenerate"] if isinstance(G, UndirectedGraph) else ["oriented-genus", "--g", "4"]
    code, out = run(argv + ["--seed", str(seed)], emit_graph(G))
    assert out == _stdlib_json(out)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.dictionaries(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(lambda e: e[0] != e[1]),
    st.integers(1, 10**15), max_size=20))
def test_coloring_to_json_is_the_stdlib_text_one_level_deep(edges, colors):
    coloring = (EdgeColoring(colors) if edges
                else VertexColoring({u: c for (u, _), c in colors.items()}))
    assert '{\n  "x": ' + coloring_to_json(coloring) + "\n}" == json.dumps(
        {"x": coloring_to_obj(coloring)}, sort_keys=True, indent=2)


@pytest.mark.parametrize("collecting", [True, False])
def test_the_collector_is_paused_in_a_command_and_restored_after(tmp_path, monkeypatch,
                                                                  collecting):
    graph = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    (tmp_path / "path.gr").write_text(graph)
    (tmp_path / "planted.json").write_text(json.dumps(
        {"kind": "edge", "k": 2, "assign": [[1, 2, 1], [2, 3, 2], [3, 4, 1]]}))
    verify = ["verify", "--kind", "inj", str(tmp_path / "planted.json"), str(tmp_path / "path.gr")]
    paused = []
    real = cli.verify_injective
    monkeypatch.setattr(cli, "verify_injective",
                        lambda *args: paused.append(not gc.isenabled()) or real(*args))
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, stdin, code in ((["inj-degenerate"], graph, 0),
                                  (["inj-degenerate"], "p edge 2\n", 1),
                                  (verify, "", 2), (["--help"], "", 0)):
            assert run(argv, stdin)[0] == code
            assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "injective_color_degenerate", lambda *args: 1 // 0)
        with pytest.raises(ZeroDivisionError):  # a bug escapes run_command as a traceback
            run(["inj-degenerate"], graph)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert paused == [True, True]


def test_one_parser_serves_every_command_of_a_process():
    # Flags given to one command must not linger as defaults for the next.
    family = ["family", "--k", "5", "--r", "2"]
    argvs = [family, family + ["--seed", "3"], family + ["--format", "text"],
             family + ["--seed", "3", "--format", "text"]]
    first = [run(argv) for argv in argvs]
    assert len({out for _, out in first}) == len(argvs)
    for argv, expected in [*zip(argvs, first), *zip(argvs[::-1], first[::-1])] * 2:
        assert run(argv) == expected
    assert cli._build_parser() is cli._build_parser()


def test_unknown_command_is_input_error():
    code, out = run(["no-such-command"])
    assert code == 1


@pytest.mark.parametrize("error", [
    FamilyConstructionError, FullGraphConstructionError, RoundLimitExceededError,
    NoWitnessError, FamilyTooWeakError, BudgetExceededError,
])
def test_runtime_failures_exit_1_with_json_error(monkeypatch, error):
    assert issubclass(error, InjcolorError) and issubclass(error, RuntimeError)

    def fail(*args):
        raise error("construction gave up")

    monkeypatch.setattr(cli, "build_separating_family", fail)
    code, out = run(["family", "--k", "5", "--r", "2"])
    assert code == 1 and json.loads(out) == {"error": "construction gave up"}


@pytest.mark.parametrize("argv", [
    ["inj-degenerate", "--g", "4"],
    ["subdivide", "--seed", "1"],
    ["inj-genus", "--g", "4", "--unverified-full"],
    ["exact", "--param", "inj", "--seed", "1"],
    ["inj-degenerate", "--budget-n", "3"],
])
def test_flags_only_on_subcommands_that_read_them(argv):
    code, out = run(argv, emit_graph(complete_graph(8)))
    assert code == 1 and "error" in json.loads(out)
