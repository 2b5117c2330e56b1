"""DIMACS-like graph text and coloring JSON.

Graph files: comment lines have ``c`` as their first token (``c`` alone or
``c`` followed by whitespace and text); one problem line ``p edge n m``
or ``p arc n m``; then ``e u v`` or ``a u v`` lines with 1-indexed vertices.
Coloring JSON: {"kind": "edge"|"vertex", "k": int, "assign": [[u, v, color],
...] or [[v, color], ...]} with the same 1-indexed ids.  Ids and colors are
JSON integers >= 1, and no vertex or edge (in either order) appears twice.
"""

from __future__ import annotations

from .graphs import EdgeColoring, OrientedGraph, UndirectedGraph, VertexColoring

MAX_VERTICES = 10**6  # a larger n would allocate one adjacency set per vertex


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
            if n > MAX_VERTICES:
                raise ParseError(f"n exceeds the limit {MAX_VERTICES}", lineno)
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


def emit_graph(graph: UndirectedGraph | OrientedGraph, header: str = "") -> str:
    """header (whole lines, each ending in a newline), the problem line, then
    the arcs (or the edges as (min, max) pairs) in lexicographic order; each
    vertex's lines are one join over id strings, and one more join makes the
    text, final newline included, without a further copy of it."""
    if isinstance(graph, OrientedGraph):
        kind, tag, rows = "arc", "a", graph._rows()
    else:
        kind, tag = "edge", "e"
        rows = (sorted(v for v in graph.neighbors(u) if v > u) for u in range(graph.n))
    ids = [str(v) for v in range(1, graph.n + 1)]
    blocks = [f"{header}p {kind} {graph.n} {graph.m}"]
    for u, heads in enumerate(rows):
        if heads:
            prefix = f"{tag} {ids[u]} "
            blocks.append(prefix + ("\n" + prefix).join([ids[v] for v in heads]))
    blocks.append("")  # the join ends the text with its newline
    return "\n".join(blocks)


def coloring_to_obj(coloring: EdgeColoring | VertexColoring) -> dict:
    if isinstance(coloring, EdgeColoring):
        assign = [[u + 1, v + 1, c] for (u, v), c in sorted(coloring.colors.items())]
        return {"kind": "edge", "k": coloring.k, "assign": assign}
    assign = [[v + 1, c] for v, c in sorted(coloring.colors.items())]
    return {"kind": "vertex", "k": coloring.k, "assign": assign}


def coloring_to_json(coloring: EdgeColoring | VertexColoring) -> str:
    """json.dumps(coloring_to_obj(coloring), sort_keys=True, indent=2) as it
    stands one level deep in a document, as the value of a top-level key:
    every line after the first indented two more spaces.  One f-string per
    assign entry, where indent would select json's pure-Python encoder."""
    colors = coloring.colors
    if isinstance(coloring, EdgeColoring):
        kind = "edge"
        rows = [f"      [\n        {u + 1},\n        {v + 1},\n        {colors[u, v]}\n      ]"
                for u, v in sorted(colors)]
    else:
        kind = "vertex"
        rows = [f"      [\n        {v + 1},\n        {colors[v]}\n      ]" for v in sorted(colors)]
    assign = ("[\n" + ",\n".join(rows) + "\n    ]") if rows else "[]"
    return f'{{\n    "assign": {assign},\n    "k": {coloring.k},\n    "kind": "{kind}"\n  }}'


def coloring_from_obj(obj: dict) -> EdgeColoring | VertexColoring:
    try:
        kind = obj["kind"]
        assign = obj["assign"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"coloring JSON missing field: {exc}") from None
    if kind not in ("edge", "vertex"):
        raise ParseError(f"unknown coloring kind {kind!r}")
    width, shape = (3, "[u, v, color]") if kind == "edge" else (2, "[v, color]")
    # type() and not isinstance(): JSON true and false must not pass as 1 and 0.
    if not isinstance(assign, list) or not all(
            isinstance(entry, list) and len(entry) == width for entry in assign) or not all(
            type(x) is int and x >= 1 for entry in assign for x in entry):
        raise ParseError(f"{kind} assign entries must be {shape}, integers >= 1")
    coloring = (EdgeColoring({(u - 1, v - 1): c for u, v, c in assign}) if kind == "edge"
                else VertexColoring({v - 1: c for v, c in assign}))
    if len(coloring.colors) < len(assign):  # EdgeColoring keys an edge as (min, max)
        raise ParseError(f"coloring JSON lists the same {kind} twice")
    return coloring
