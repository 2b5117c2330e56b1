"""Command-line surface tying the modules together.

Graphs arrive on stdin in the DIMACS-like text format, reports leave on
stdout as JSON (or plain text with --format text).  Exit codes: 0 success
with verifier true, 1 input or budget errors, 2 verifier false.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import generators
from .dimacs import ParseError, coloring_from_obj, coloring_to_obj, emit_graph, parse_graph
from .genus import (
    DegeneracyExceedsGenusError,
    GenusTooSmallError,
    injective_color_genus,
    oriented_color_genus,
    oriented_color_genus_via_2dipath,
)
from .graphs import EdgeColoring, OrientedGraph, UndirectedGraph, VertexColoring
from .injective import (
    InvalidColoringError,
    injective_color_degenerate,
    subdivide,
    verify_injective,
)
from .oracles import (
    BudgetExceededError,
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


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route those to our
    # input-error code instead.
    def error(self, message):  # noqa: D102
        raise ParseError(message)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--budget-n", type=int, default=None)
    parser.add_argument("--budget-m", type=int, default=None)
    parser.add_argument("--g", type=int, default=None)
    parser.add_argument("--unverified-full", action="store_true")


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="injcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (
        "inj-degenerate",
        "inj-genus",
        "oriented-genus",
        "oriented-2dipath",
        "subdivide",
    ):
        p = sub.add_parser(name)
        _common_flags(p)

    p = sub.add_parser("exact")
    _common_flags(p)
    p.add_argument("--param", choices=("inj", "chromatic", "oriented", "2dipath"),
                   required=True)

    p = sub.add_parser("oriented-from-inj")
    _common_flags(p)
    p.add_argument("--coloring", required=True, help="edge-coloring JSON file")

    p = sub.add_parser("verify")
    _common_flags(p)
    p.add_argument("--kind", choices=("inj", "oriented", "2dipath"), required=True)
    p.add_argument("coloring", help="coloring JSON file")
    p.add_argument("graph", help="graph file")

    p = sub.add_parser("gen")
    _common_flags(p)
    p.add_argument("--family", required=True,
                   choices=("complete", "path", "cycle", "random-genus-lb", "k5-padding"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--copies", type=int, default=0)

    p = sub.add_parser("family")
    _common_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("full-graph")
    _common_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    return parser


def _budget(args) -> OracleBudget:
    default = OracleBudget()
    return OracleBudget(
        max_vertices=args.budget_n if args.budget_n is not None else default.max_vertices,
        max_edges=args.budget_m if args.budget_m is not None else default.max_edges,
        timeout=default.timeout,
    )


def _need_genus(args) -> int:
    if args.g is None:
        raise ParseError("this command requires --g <genus>")
    return args.g


def _read_graph(text: str, kind: type) -> UndirectedGraph | OrientedGraph:
    graph = parse_graph(text)
    if not isinstance(graph, kind):
        what = "an undirected (p edge)" if kind is UndirectedGraph else "an oriented (p arc)"
        raise ParseError(f"this command needs {what} graph")
    return graph


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


def _coloring_report(coloring, report, valid: bool) -> dict:
    return {
        "coloring": coloring_to_obj(coloring),
        "colors": coloring.k,
        "valid": valid,
        "report": report,
    }


# Genus command -> (graph type, report.checks key, pipeline).  The lambdas
# look the pipelines up by module name at call time, so a wrapper installed
# on this module's attributes (as the perfbench tracer does) sees the calls.
_GENUS_COMMANDS = {
    "inj-genus": (UndirectedGraph, "injective_valid",
                  lambda graph, g, args: injective_color_genus(graph, g, args.seed)),
    "oriented-genus": (OrientedGraph, "oriented_valid",
                       lambda graph, g, args: oriented_color_genus(graph, g, args.seed)),
    "oriented-2dipath": (OrientedGraph, "oriented_valid",
                         lambda graph, g, args: oriented_color_genus_via_2dipath(
                             graph, g, args.seed, allow_uncertified_full=args.unverified_full)),
}


def _dispatch(args, read_stdin: Callable[[], str]) -> tuple[int, dict | str]:
    cmd = args.command
    if cmd == "exact":
        budget = _budget(args)
        graph = parse_graph(read_stdin())
        if args.param in ("inj", "chromatic"):
            if not isinstance(graph, UndirectedGraph):
                raise ParseError(f"--param {args.param} needs a p edge graph")
            value = (exact_injective_index(graph, budget) if args.param == "inj"
                     else exact_chromatic_number(graph, budget))
        else:
            if not isinstance(graph, OrientedGraph):
                raise ParseError(f"--param {args.param} needs a p arc graph")
            value = (exact_oriented_number(graph, budget) if args.param == "oriented"
                     else exact_2dipath_number(graph, budget))
        return EXIT_OK, {"param": args.param, "value": value}

    if cmd == "inj-degenerate":
        graph = _read_graph(read_stdin(), UndirectedGraph)
        coloring = injective_color_degenerate(graph, args.seed)
        valid = verify_injective(graph, coloring)
        out = _coloring_report(coloring, {"seed": args.seed}, valid)
        return (EXIT_OK if valid else EXIT_INVALID), out

    if cmd in _GENUS_COMMANDS:
        kind, check, pipeline = _GENUS_COMMANDS[cmd]
        graph = _read_graph(read_stdin(), kind)
        coloring, report = pipeline(graph, _need_genus(args), args)
        valid = report.checks[check]
        out = _coloring_report(coloring, report.to_dict(), valid)
        return (EXIT_OK if valid else EXIT_INVALID), out

    if cmd == "oriented-from-inj":
        graph = _read_graph(read_stdin(), OrientedGraph)
        with open(args.coloring, encoding="utf-8") as fh:
            edge_coloring = coloring_from_obj(json.load(fh))
        if not isinstance(edge_coloring, EdgeColoring):
            raise ParseError("--coloring must hold an edge coloring")
        if not verify_injective(graph.underlying(), edge_coloring):
            raise InvalidColoringError("edge coloring is not injective")
        coloring = oriented_from_injective(graph, edge_coloring)
        valid = verify_oriented_coloring(graph, coloring)
        out = _coloring_report(coloring, {"injective_colors": edge_coloring.k}, valid)
        return (EXIT_OK if valid else EXIT_INVALID), out

    if cmd == "subdivide":
        graph = _read_graph(read_stdin(), UndirectedGraph)
        return EXIT_OK, emit_graph(subdivide(graph))

    if cmd == "verify":
        with open(args.coloring, encoding="utf-8") as fh:
            coloring = coloring_from_obj(json.load(fh))
        with open(args.graph, encoding="utf-8") as fh:
            graph = parse_graph(fh.read())
        if args.kind == "inj":
            if not isinstance(graph, UndirectedGraph) or not isinstance(coloring, EdgeColoring):
                raise ParseError("inj verification needs a p edge graph and an edge coloring")
            valid = verify_injective(graph, coloring)
        else:
            if not isinstance(graph, OrientedGraph) or not isinstance(coloring, VertexColoring):
                raise ParseError(f"{args.kind} verification needs a p arc graph and a "
                                 "vertex coloring")
            valid = (verify_oriented_coloring(graph, coloring) if args.kind == "oriented"
                     else verify_2dipath(graph, coloring))
        return (EXIT_OK if valid else EXIT_INVALID), {"kind": args.kind, "valid": valid}

    if cmd == "gen":
        return EXIT_OK, _generate(args, read_stdin)

    if cmd == "family":
        fam = build_separating_family(args.k, args.r, args.seed)
        return EXIT_OK, {
            "k": fam.k,
            "r": fam.r,
            "size": len(fam.sets),
            "sets": [sorted(s) for s in fam.sets],
            "valid": True,
        }

    if cmd == "full-graph":
        full = build_full_graph(args.k, args.d, args.seed)
        return EXIT_OK, {
            "k": full.k,
            "d": full.d,
            "part_size": full.N,
            "vertices": full.n,
            "arcs": full.arc_count,
            "verified": True,
        }

    raise ParseError(f"unknown command {cmd!r}")


def _generate(args, read_stdin: Callable[[], str]) -> str:
    family = args.family
    if family == "k5-padding":
        base = _read_graph(read_stdin(), UndirectedGraph)
        return emit_graph(generators.pad_with_k5(base, args.copies))
    if args.n is None:
        raise ParseError("gen requires --n for this family")
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
        code, result = _dispatch(args, read_stdin)
    except (
        ParseError,
        GenusTooSmallError,
        DegeneracyExceedsGenusError,
        BudgetExceededError,
        InvalidColoringError,
        ValueError,
        OSError,
    ) as exc:
        return EXIT_INPUT_ERROR, _render({"error": str(exc)}, fmt)
    if isinstance(result, str):
        return code, result
    return code, _render(result, fmt)


def main() -> None:
    code, output = run_command(sys.argv[1:])
    sys.stdout.write(output)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
