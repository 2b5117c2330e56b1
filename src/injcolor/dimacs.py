"""DIMACS-like graph text and coloring JSON.

Graph files: comment lines have ``c`` as their first token (``c`` alone or
``c`` followed by whitespace and text); one problem line ``p edge n m``
or ``p arc n m``; then ``e u v`` or ``a u v`` lines with 1-indexed vertices.
Coloring JSON: {"kind": "edge"|"vertex", "k": int, "assign": [[u, v, color],
...] or [[v, color], ...]} with the same 1-indexed ids.
"""

from __future__ import annotations

from .graphs import EdgeColoring, OrientedGraph, UndirectedGraph, VertexColoring


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_graph(text: str) -> UndirectedGraph | OrientedGraph:
    mode = None
    n = m = 0
    items: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if mode is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] not in ("edge", "arc"):
                raise ParseError("expected 'p edge n m' or 'p arc n m'", lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("n and m must be integers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("n and m must be nonnegative", lineno)
            mode = fields[1]
        elif fields[0] in ("e", "a"):
            if mode is None:
                raise ParseError("edge before problem line", lineno)
            expected = "e" if mode == "edge" else "a"
            if fields[0] != expected:
                raise ParseError(f"'{fields[0]}' line in {mode} mode", lineno)
            if len(fields) != 3:
                raise ParseError("expected two endpoints", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("endpoints must be integers", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", lineno)
            if u == v:
                raise ParseError("self-loop", lineno)
            items.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized line type '{fields[0]}'", lineno)
    if mode is None:
        raise ParseError("missing problem line")
    if mode == "edge":
        graph: UndirectedGraph | OrientedGraph = UndirectedGraph(n, items)
    else:
        try:
            graph = OrientedGraph(n, items)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if graph.m != m:
        raise ParseError(f"problem line declares {m} edges but {graph.m} distinct ones parsed")
    return graph


def emit_graph(graph: UndirectedGraph | OrientedGraph) -> str:
    lines = []
    if isinstance(graph, OrientedGraph):
        lines.append(f"p arc {graph.n} {graph.m}")
        lines.extend(f"a {u + 1} {v + 1}" for u, v in graph.arcs())
    else:
        lines.append(f"p edge {graph.n} {graph.m}")
        lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def coloring_to_obj(coloring: EdgeColoring | VertexColoring) -> dict:
    if isinstance(coloring, EdgeColoring):
        assign = [[u + 1, v + 1, c] for (u, v), c in sorted(coloring.colors.items())]
        return {"kind": "edge", "k": coloring.k, "assign": assign}
    assign = [[v + 1, c] for v, c in sorted(coloring.colors.items())]
    return {"kind": "vertex", "k": coloring.k, "assign": assign}


def coloring_from_obj(obj: dict) -> EdgeColoring | VertexColoring:
    try:
        kind = obj["kind"]
        assign = obj["assign"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"coloring JSON missing field: {exc}") from None
    if kind == "edge":
        try:
            return EdgeColoring({(u - 1, v - 1): c for u, v, c in assign})
        except (TypeError, ValueError):
            raise ParseError("edge assign entries must be [u, v, color]") from None
    if kind == "vertex":
        try:
            return VertexColoring({v - 1: c for v, c in assign})
        except (TypeError, ValueError):
            raise ParseError("vertex assign entries must be [v, color]") from None
    raise ParseError(f"unknown coloring kind {kind!r}")
