"""Command-line surface tying the modules together.

Graphs arrive on stdin in the DIMACS-like text format, reports leave on
stdout as JSON (or plain text with --format text).  Each subcommand is one
handler, registered with its flags; a coloring file must color exactly the
graph's vertices or edges.  Exit codes: 0 success with verifier true, 1
input, budget or construction errors, 2 verifier false.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import generators
from .dimacs import (MAX_VERTICES, ParseError, coloring_from_obj, coloring_to_obj, emit_graph,
                     parse_graph)
from .errors import InjcolorError
from .genus import injective_color_genus, oriented_color_genus, oriented_color_genus_via_2dipath
from .graphs import EdgeColoring, OrientedGraph, UndirectedGraph, VertexColoring
from .injective import (
    InvalidColoringError,
    injective_color_degenerate,
    subdivide,
    verify_injective,
)
from .oracles import (
    OracleBudget,
    exact_2dipath_number,
    exact_chromatic_number,
    exact_injective_index,
    exact_oriented_number,
)
from .oriented import (
    build_full_graph,
    oriented_from_injective,
    verify_2dipath,
    verify_oriented_coloring,
)
from .separating import build_separating_family

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INVALID = 2

# gen refuses complete and random-genus-lb outputs spanning more vertex pairs
# C(n, 2) than this (n <= 2,449), since it holds every edge in a Python set.
GEN_PAIR_BUDGET = 3 * 10**6


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route those to our
    # input-error code instead.
    def error(self, message):  # noqa: D102
        raise ParseError(message)


def _subcommand(sub, name: str, run: Callable, *, seed: bool = False) -> _CliParser:
    """A subcommand handled by run, taking --format, plus --seed where run reads it."""
    p = sub.add_parser(name)
    p.set_defaults(run=run)
    p.add_argument("--format", choices=("json", "text"), default="json")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    return p


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="injcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "inj-degenerate", _inj_degenerate, seed=True)
    for name in ("inj-genus", "oriented-genus", "oriented-2dipath"):
        p = _subcommand(sub, name, _genus, seed=True)
        p.add_argument("--g", type=int, required=True)
    p.add_argument("--unverified-full", action="store_true")  # on oriented-2dipath
    _subcommand(sub, "subdivide", _subdivide)

    p = _subcommand(sub, "exact", _exact)
    p.add_argument("--param", choices=("inj", "chromatic", "oriented", "2dipath"),
                   required=True)
    p.add_argument("--budget-n", type=int, default=OracleBudget.max_vertices)
    p.add_argument("--budget-m", type=int, default=OracleBudget.max_edges)

    p = _subcommand(sub, "oriented-from-inj", _oriented_from_inj)
    p.add_argument("--coloring", required=True, help="edge-coloring JSON file")

    p = _subcommand(sub, "verify", _verify)
    p.add_argument("--kind", choices=("inj", "oriented", "2dipath"), required=True)
    p.add_argument("coloring", help="coloring JSON file")
    p.add_argument("graph", help="graph file")

    p = _subcommand(sub, "gen", _generate, seed=True)
    p.add_argument("--family", required=True,
                   choices=("complete", "path", "cycle", "random-genus-lb", "k5-padding"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--copies", type=int, default=0)

    p = _subcommand(sub, "family", _family, seed=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = _subcommand(sub, "full-graph", _full_graph, seed=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    return parser


def _read_graph(text: str, kind: type) -> UndirectedGraph | OrientedGraph:
    graph = parse_graph(text)
    if not isinstance(graph, kind):
        what = "an undirected (p edge)" if kind is UndirectedGraph else "an oriented (p arc)"
        raise ParseError(f"this command needs {what} graph")
    return graph


def _read_coloring(path: str, kind: type, graph: UndirectedGraph | OrientedGraph
                   ) -> EdgeColoring | VertexColoring:
    """The kind (EdgeColoring or VertexColoring) coloring in the JSON file at
    path, refused unless it colors exactly the edges (of the underlying graph)
    or the vertices of graph.  Errors name ids from 1, as the file does."""
    with open(path, encoding="utf-8") as fh:
        coloring = coloring_from_obj(json.load(fh))
    edges = kind is EdgeColoring
    if not isinstance(coloring, kind):
        raise ParseError(f"this command needs {'an edge' if edges else 'a vertex'} coloring")
    if edges and isinstance(graph, OrientedGraph):
        graph = graph.underlying()  # built after the parsed JSON is freed: a lower peak
    extra = next((x for x in coloring.colors
                  if not (graph.has_edge(*x) if edges else x < graph.n)), None)
    if extra is not None:
        others = "non-edges" if edges else "non-vertices"
        raise InvalidColoringError(f"colored {others} present, e.g. {_one_based(extra)}")
    # The ids are distinct and all in the graph, so only a short file misses one.
    if len(coloring.colors) < (graph.m if edges else graph.n):
        items = graph.edges() if edges else range(graph.n)
        missing = next(x for x in items if x not in coloring.colors)
        raise InvalidColoringError(f"{'edge' if edges else 'vertex'} {_one_based(missing)} "
                                   "has no color")
    return coloring


def _one_based(item: int | tuple[int, int]) -> int | tuple[int, int]:
    return item + 1 if isinstance(item, int) else (item[0] + 1, item[1] + 1)


def _render(obj: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    lines = []

    def flat(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                flat(f"{prefix}{key}.", value[key])
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    flat("", obj)
    return "\n".join(lines) + "\n"


# Handlers return a report dict or raw stdout text.  They look the pipelines
# up as module globals at call time, so a wrapper installed on this module's
# attributes (as the perfbench tracer does) sees every call.

def _exact(args, read_stdin: Callable[[], str]) -> dict:
    budget = OracleBudget(max_vertices=args.budget_n, max_edges=args.budget_m)
    kind = UndirectedGraph if args.param in ("inj", "chromatic") else OrientedGraph
    graph = _read_graph(read_stdin(), kind)
    oracle = {"inj": exact_injective_index, "chromatic": exact_chromatic_number,
              "oriented": exact_oriented_number, "2dipath": exact_2dipath_number}[args.param]
    return {"param": args.param, "value": oracle(graph, budget)}


def _inj_degenerate(args, read_stdin: Callable[[], str]) -> dict:
    graph = _read_graph(read_stdin(), UndirectedGraph)
    coloring = injective_color_degenerate(graph, args.seed)
    valid = verify_injective(graph, coloring)
    return {"coloring": coloring_to_obj(coloring), "colors": coloring.k, "valid": valid,
            "report": {"seed": args.seed}}


def _genus(args, read_stdin: Callable[[], str]) -> dict:
    if args.command == "inj-genus":
        graph = _read_graph(read_stdin(), UndirectedGraph)
        coloring, report = injective_color_genus(graph, args.g, args.seed)
        valid = report.checks["injective_valid"]
    else:
        graph = _read_graph(read_stdin(), OrientedGraph)
        if args.command == "oriented-genus":
            coloring, report = oriented_color_genus(graph, args.g, args.seed)
        else:
            coloring, report = oriented_color_genus_via_2dipath(
                graph, args.g, args.seed, allow_uncertified_full=args.unverified_full)
        valid = report.checks["oriented_valid"]
    return {"coloring": coloring_to_obj(coloring), "colors": coloring.k, "valid": valid,
            "report": report.to_dict()}


def _oriented_from_inj(args, read_stdin: Callable[[], str]) -> dict:
    graph = _read_graph(read_stdin(), OrientedGraph)
    edge_coloring = _read_coloring(args.coloring, EdgeColoring, graph)
    if not verify_injective(graph.underlying(), edge_coloring):
        raise InvalidColoringError("edge coloring is not injective")
    coloring = oriented_from_injective(graph, edge_coloring)
    valid = verify_oriented_coloring(graph, coloring)
    return {"coloring": coloring_to_obj(coloring), "colors": coloring.k, "valid": valid,
            "report": {"injective_colors": edge_coloring.k}}


def _subdivide(args, read_stdin: Callable[[], str]) -> str:
    return emit_graph(subdivide(_read_graph(read_stdin(), UndirectedGraph)))


def _verify(args, read_stdin: Callable[[], str]) -> dict:
    inj = args.kind == "inj"
    with open(args.graph, encoding="utf-8") as fh:
        graph = _read_graph(fh.read(), UndirectedGraph if inj else OrientedGraph)
    coloring = _read_coloring(args.coloring, EdgeColoring if inj else VertexColoring, graph)
    verifier = {"inj": verify_injective, "oriented": verify_oriented_coloring,
                "2dipath": verify_2dipath}[args.kind]
    return {"kind": args.kind, "valid": verifier(graph, coloring)}


def _family(args, read_stdin: Callable[[], str]) -> dict:
    fam = build_separating_family(args.k, args.r, args.seed)
    return {"k": fam.k, "r": fam.r, "size": len(fam.sets),
            "sets": [sorted(s) for s in fam.sets], "valid": True}


def _full_graph(args, read_stdin: Callable[[], str]) -> dict:
    full = build_full_graph(args.k, args.d, args.seed)
    return {"k": full.k, "d": full.d, "part_size": full.N, "vertices": full.n,
            "arcs": full.arc_count, "verified": True}


def _refuse_oversized(n: int, all_pairs: bool) -> None:
    """Refuse, before building it, a gen output the parser would refuse or
    one whose family may join all of its C(n, 2) pairs beyond the budget."""
    if n > MAX_VERTICES:
        raise ParseError(f"gen output of {n} vertices exceeds the limit {MAX_VERTICES}")
    if all_pairs and n > 0 and n * (n - 1) // 2 > GEN_PAIR_BUDGET:
        raise ParseError(f"gen output spans {n * (n - 1) // 2} vertex pairs, beyond the "
                         f"budget {GEN_PAIR_BUDGET}")


def _generate(args, read_stdin: Callable[[], str]) -> str:
    family = args.family
    if family == "k5-padding":
        base = _read_graph(read_stdin(), UndirectedGraph)
        _refuse_oversized(base.n + 5 * args.copies, all_pairs=False)
        return emit_graph(generators.pad_with_k5(base, args.copies))
    if args.n is None:
        raise ParseError("gen requires --n for this family")
    _refuse_oversized(args.n, all_pairs=family in ("complete", "random-genus-lb"))
    if family == "complete":
        return emit_graph(generators.complete_graph(args.n))
    if family == "path":
        return emit_graph(generators.path(args.n))
    if family == "cycle":
        return emit_graph(generators.cycle(args.n))
    graph = generators.random_genus_lowerbound(args.n, args.seed)
    p = generators.edge_probability(args.n)
    header = (
        f"c random-genus-lb n={args.n} seed={args.seed} edges={graph.m} "
        f"p={p!r} target_pn2={p * args.n * args.n!r}\n"
    )
    return header + emit_graph(graph)


def run_command(
    argv: Sequence[str],
    read_stdin: Callable[[], str] = lambda: sys.stdin.read(),
) -> tuple[int, str]:
    """Execute one subcommand; returns (exit code, stdout text)."""
    fmt = "json"
    try:
        args = _build_parser().parse_args(list(argv))
        fmt = args.format
        result = args.run(args, read_stdin)
    # ValueError covers ParseError, InvalidColoringError and the genus
    # refusals; InjcolorError covers budgets and failed constructions.
    except (InjcolorError, ValueError, OSError) as exc:
        return EXIT_INPUT_ERROR, _render({"error": str(exc)}, fmt)
    if isinstance(result, str):
        return EXIT_OK, result
    # A verifier's false verdict is the one report that exits 2.
    return (EXIT_INVALID if result.get("valid") is False else EXIT_OK), _render(result, fmt)


def main() -> None:
    code, output = run_command(sys.argv[1:])
    sys.stdout.write(output)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
