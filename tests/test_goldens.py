"""Golden CLI outputs: every subcommand and every pipeline route, byte for byte.

Each case is a fixed argv and stdin.  tests/goldens.json holds the sha256 of
``run_command``'s (exit code, stdout) for each case, so a refactor that keeps
behaviour reproduces every digest exactly.  After an intended output change,
regenerate the fixture with

    PYTHONPATH=src python tests/test_goldens.py

and say in the change log which cases moved and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from injcolor import (
    UndirectedGraph,
    complete_graph,
    cycle,
    grid_graph,
    path,
    random_degenerate_graph,
    random_orientation,
)
from injcolor.cli import run_command
from injcolor.dimacs import emit_graph

FIXTURE = Path(__file__).with_name("goldens.json")


def _grid_subgraph(seed: int) -> UndirectedGraph:
    full = grid_graph(10, 10)
    rng = random.Random(seed)
    return UndirectedGraph(100, [e for e in full.edges() if rng.random() < 0.7])


def _write(tmp: Path, name: str, text: str) -> str:
    target = tmp / name
    target.write_text(text)
    return str(target)


def _edge_json(assign) -> str:
    return json.dumps({"kind": "edge", "k": len({c for *_, c in assign}), "assign": assign})


def _vertex_json(assign) -> str:
    return json.dumps({"kind": "vertex", "k": len({c for _, c in assign}), "assign": assign})


def _cases(tmp: Path):
    """Yield (name, argv, stdin) in a fixed order; later cases may read files
    written from earlier outputs."""
    k4 = emit_graph(complete_graph(4))
    k8 = emit_graph(complete_graph(8))
    degen3 = emit_graph(random_degenerate_graph(60, 3, 2))
    grid3 = _grid_subgraph(3)
    grid5 = _grid_subgraph(5)
    dipath_2 = "p arc 3 2\na 1 2\na 2 3\n"
    tri_arc = "p arc 3 3\na 1 2\na 2 3\na 3 1\n"

    yield "exact-inj", ["exact", "--param", "inj"], k4
    yield "exact-chromatic", ["exact", "--param", "chromatic"], emit_graph(cycle(5))
    yield "exact-oriented", ["exact", "--param", "oriented"], tri_arc
    yield "exact-2dipath", ["exact", "--param", "2dipath"], emit_graph(
        random_orientation(random_degenerate_graph(10, 2, 1), 1))
    yield "exact-wrong-mode", ["exact", "--param", "inj"], "p arc 2 1\na 1 2\n"
    yield "exact-over-budget", ["exact", "--param", "chromatic", "--budget-n", "3"], k4

    yield "inj-degenerate-3deg", ["inj-degenerate", "--seed", "3"], degen3
    yield "inj-degenerate-path-closed-form", ["inj-degenerate"], emit_graph(path(10))
    yield "inj-degenerate-text", ["inj-degenerate", "--seed", "7", "--format", "text"], k4
    yield "inj-degenerate-comments", ["inj-degenerate"], "c a comment\nc\n" + k4
    yield "inj-degenerate-too-many-vertices", ["inj-degenerate"], "p edge 200000000 0\n"

    yield "inj-genus-grid", ["inj-genus", "--g", "2", "--seed", "1"], emit_graph(grid3)
    yield "inj-genus-k8", ["inj-genus", "--g", "4", "--seed", "1"], k8
    yield "inj-genus-no-g", ["inj-genus"], k8
    yield "inj-genus-small-g", ["inj-genus", "--g", "1"], k4
    yield "inj-genus-too-dense", ["inj-genus", "--g", "2"], emit_graph(complete_graph(12))

    yield "oriented-genus-large", ["oriented-genus", "--g", "2", "--seed", "1"], emit_graph(
        random_orientation(grid3, 1))
    yield "oriented-genus-small", ["oriented-genus", "--g", "4", "--seed", "1"], emit_graph(
        random_orientation(complete_graph(8), 2))
    yield "oriented-genus-needs-arcs", ["oriented-genus", "--g", "4"], k8

    yield "oriented-2dipath-edgeless", ["oriented-2dipath", "--g", "2"], emit_graph(
        random_orientation(complete_graph(5), 1))
    yield "oriented-2dipath-certified", ["oriented-2dipath", "--g", "2", "--seed", "4"], \
        emit_graph(random_orientation(grid5, 2))
    degen_arc = emit_graph(random_orientation(random_degenerate_graph(60, 3, 4), 4))
    yield "oriented-2dipath-over-budget", ["oriented-2dipath", "--g", "2"], degen_arc
    yield "oriented-2dipath-uncertified", ["oriented-2dipath", "--g", "2",
                                           "--unverified-full"], degen_arc

    # oriented-from-inj reads the coloring printed by an inj-degenerate run.
    small = random_degenerate_graph(30, 2, 1)
    _, out = run_command(["inj-degenerate", "--seed", "1"], lambda: emit_graph(small))
    yield "inj-degenerate-feeder", ["inj-degenerate", "--seed", "1"], emit_graph(small)
    inj_file = _write(tmp, "inj.json", json.dumps(json.loads(out)["coloring"]))
    small_arc = emit_graph(random_orientation(small, 5))
    yield "oriented-from-inj", ["oriented-from-inj", "--coloring", inj_file], small_arc
    same = _write(tmp, "same.json", _edge_json([[1, 2, 1], [2, 3, 1], [1, 3, 1]]))
    yield "oriented-from-inj-not-injective", ["oriented-from-inj", "--coloring", same], tri_arc
    short = _write(tmp, "short.json", _edge_json([[1, 2, 1]]))
    yield "oriented-from-inj-missing-edge", ["oriented-from-inj", "--coloring", short], dipath_2
    extra = _write(tmp, "extra.json", _edge_json([[1, 2, 1], [2, 3, 2], [1, 3, 3]]))
    yield "oriented-from-inj-non-edge", ["oriented-from-inj", "--coloring", extra], dipath_2
    vert = _write(tmp, "vert.json", _vertex_json([[1, 1], [2, 2], [3, 3]]))
    yield "oriented-from-inj-vertex-kind", ["oriented-from-inj", "--coloring", vert], dipath_2

    yield "subdivide", ["subdivide"], k4

    k4_file = _write(tmp, "k4.gr", k4)
    distinct = _write(tmp, "distinct.json", _edge_json(
        [[u + 1, v + 1, i + 1] for i, (u, v) in enumerate(complete_graph(4).edges())]))
    yield "verify-inj-valid", ["verify", "--kind", "inj", distinct, k4_file], ""
    mono = _write(tmp, "mono.json", _edge_json(
        [[u + 1, v + 1, 1] for u, v in complete_graph(4).edges()]))
    yield "verify-inj-invalid", ["verify", "--kind", "inj", mono, k4_file], ""
    path_arc = _write(tmp, "dipath.gr", dipath_2)
    yield "verify-oriented", ["verify", "--kind", "oriented", vert, path_arc], ""
    yield "verify-2dipath-valid", ["verify", "--kind", "2dipath", vert, path_arc], ""
    ends = _write(tmp, "ends.json", _vertex_json([[1, 1], [2, 2], [3, 1]]))
    yield "verify-2dipath-invalid", ["verify", "--kind", "2dipath", ends, path_arc], ""
    partial = _write(tmp, "partial.json", _vertex_json([[1, 1], [2, 2]]))
    yield "verify-2dipath-uncolored", ["verify", "--kind", "2dipath", partial, path_arc], ""

    yield "gen-complete", ["gen", "--family", "complete", "--n", "5"], ""
    yield "gen-path", ["gen", "--family", "path", "--n", "5"], ""
    yield "gen-cycle", ["gen", "--family", "cycle", "--n", "6"], ""
    yield "gen-random-genus-lb", ["gen", "--family", "random-genus-lb", "--n", "40",
                                  "--seed", "4"], ""
    yield "gen-k5-padding", ["gen", "--family", "k5-padding", "--copies", "2"], \
        emit_graph(complete_graph(3))
    yield "gen-no-n", ["gen", "--family", "cycle"], ""

    yield "family", ["family", "--k", "5", "--r", "2", "--seed", "0"], ""
    yield "family-over-budget", ["family", "--k", "30", "--r", "8"], ""
    yield "full-graph", ["full-graph", "--k", "5", "--d", "2", "--seed", "0"], ""
    yield "full-graph-small-k", ["full-graph", "--k", "4", "--d", "2"], ""
    yield "full-graph-over-budget", ["full-graph", "--k", "5", "--d", "3"], ""
    yield "full-graph-too-many-vertices", ["full-graph", "--k", "100", "--d", "2"], ""

    word = _write(tmp, "word.json", _edge_json([[1, 2, "a"], [1, 3, 1]]))
    yield "oriented-from-inj-string-color", ["oriented-from-inj", "--coloring", word], \
        "p arc 3 2\na 1 2\na 1 3\n"
    zero = _write(tmp, "zero.json", _vertex_json([[1, 0], [2, 1], [3, 2]]))
    yield "verify-oriented-color-zero", ["verify", "--kind", "oriented", zero, path_arc], ""
    yield "gen-complete-too-many-pairs", ["gen", "--family", "complete", "--n", "100000"], ""
    yield "gen-path-too-many-vertices", ["gen", "--family", "path", "--n", "2000000"], ""
    # Both pass the Heawood check; one vertex then exceeds the class caps for g.
    yield "inj-genus-class-cap", ["inj-genus", "--g", "2"], emit_graph(
        random_degenerate_graph(40, 6, 1))
    yield "oriented-genus-class-cap", ["oriented-genus", "--g", "4"], emit_graph(
        random_orientation(random_degenerate_graph(60, 7, 1), 1))


def _digests(tmp: Path) -> dict[str, str]:
    out = {}
    for name, argv, stdin in _cases(tmp):
        code, stdout = run_command(argv, lambda text=stdin: text)
        out[name] = hashlib.sha256(json.dumps([code, stdout]).encode()).hexdigest()
    return out


def test_cli_goldens(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    actual = _digests(tmp_path)
    assert list(actual) == list(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"CLI output changed for {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(Path(tmp))
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
