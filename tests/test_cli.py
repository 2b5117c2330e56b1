import json

import pytest

from injcolor import (
    EdgeColoring,
    OrientedGraph,
    UndirectedGraph,
    complete_graph,
    cycle,
    injective_color_degenerate,
    random_degenerate_graph,
    random_orientation,
)
from injcolor.cli import run_command
from injcolor.dimacs import ParseError, coloring_from_obj, coloring_to_obj, emit_graph, parse_graph


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
    ]
    cpath = tmp_path / "inj.json"
    for graph, assign, message in cases:
        cpath.write_text(json.dumps({"kind": "edge", "k": 1, "assign": assign}))
        code, out = run(["oriented-from-inj", "--coloring", str(cpath)], graph)
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


def test_family_and_full_graph_subcommands():
    code, out = run(["family", "--k", "5", "--r", "2", "--seed", "0"])
    obj = json.loads(out)
    assert code == 0 and obj["size"] <= 18 and obj["valid"]
    code, out = run(["full-graph", "--k", "5", "--d", "2", "--seed", "0"])
    obj = json.loads(out)
    assert code == 0 and obj["part_size"] == 104 and obj["verified"]
    code, out = run(["full-graph", "--k", "4", "--d", "2"])
    assert code == 1


def test_text_format():
    code, out = run(["exact", "--param", "inj", "--format", "text"], emit_graph(complete_graph(4)))
    assert code == 0 and "value: 6" in out


def test_unknown_command_is_input_error():
    code, out = run(["no-such-command"])
    assert code == 1
