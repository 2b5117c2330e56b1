"""Command-line surface tying the modules together.

Graphs arrive on stdin in the DIMACS-like text format, reports leave on
stdout as JSON (or plain text with --format text).  Exit codes: 0 success
with verifier true, 1 input, budget or construction errors, 2 verifier
false.
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


def _subcommand(sub, name: str, *, seed: bool = False, genus: bool = False) -> _CliParser:
    """A subcommand taking --format, plus --seed and --g where it reads them."""
    p = sub.add_parser(name)
    p.add_argument("--format", choices=("json", "text"), default="json")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if genus:
        # Optional for argparse: _need_genus refuses a missing --g with its own message.
        p.add_argument("--g", type=int, default=None)
    return p


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="injcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "inj-degenerate", seed=True)
    _subcommand(sub, "inj-genus", seed=True, genus=True)
    _subcommand(sub, "oriented-genus", seed=True, genus=True)
    p = _subcommand(sub, "oriented-2dipath", seed=True, genus=True)
    p.add_argument("--unverified-full", action="store_true")
    _subcommand(sub, "subdivide")

    p = _subcommand(sub, "exact")
    p.add_argument("--param", choices=("inj", "chromatic", "oriented", "2dipath"),
                   required=True)
    p.add_argument("--budget-n", type=int, default=OracleBudget.max_vertices)
    p.add_argument("--budget-m", type=int, default=OracleBudget.max_edges)

    p = _subcommand(sub, "oriented-from-inj")
    p.add_argument("--coloring", required=True, help="edge-coloring JSON file")

    p = _subcommand(sub, "verify")
    p.add_argument("--kind", choices=("inj", "oriented", "2dipath"), required=True)
    p.add_argument("coloring", help="coloring JSON file")
    p.add_argument("graph", help="graph file")

    p = _subcommand(sub, "gen", seed=True)
    p.add_argument("--family", required=True,
                   choices=("complete", "path", "cycle", "random-genus-lb", "k5-padding"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--copies", type=int, default=0)

    p = _subcommand(sub, "family", seed=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = _subcommand(sub, "full-graph", seed=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    return parser


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
        budget = OracleBudget(max_vertices=args.budget_n, max_edges=args.budget_m)
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
        code, result = _dispatch(args, read_stdin)
    # ValueError covers ParseError, InvalidColoringError and the genus
    # refusals; InjcolorError covers budgets and failed constructions.
    except (InjcolorError, ValueError, OSError) as exc:
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
