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
    """The graph in the text, read in one pass: each line is checked and its
    edge or arc goes straight into the adjacency or out-sets, which the
    trusted _from_sets builder takes as they are.  Duplicate lines collapse.

    A refusal is a ParseError, in this precedence: the first bad line (its
    number in .line), then a missing problem line, then the first arc whose
    reverse came earlier ("digon between u and v" in file ids, its number in
    .line), then a distinct-edge count other than the problem line's m.  So
    a bad line after a digon is the one reported."""
    mode = tag = digon = None
    n = m = 0
    sets: list[set[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        head = fields[0]
        if head == tag:
            try:  # a wrong field count fails the unpacking first
                _, u, v = fields
                u = int(u) - 1
                v = int(v) - 1
            except ValueError:
                raise ParseError("expected two endpoints" if len(fields) != 3
                                 else "endpoints must be integers", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint outside 1..{n}", lineno)
            if u == v:
                raise ParseError("self-loop", lineno)
            if tag == "e":
                sets[u].add(v)
                sets[v].add(u)
            elif u in sets[v]:
                digon = digon or ParseError(f"digon between {u + 1} and {v + 1}", lineno)
            else:
                sets[u].add(v)
        elif head == "p":
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
            mode, tag = fields[1], fields[1][0]
            sets = [set() for _ in range(n)]
        elif head in ("e", "a"):
            if mode is None:
                raise ParseError("edge before problem line", lineno)
            raise ParseError(f"'{head}' line in {mode} mode", lineno)
        else:
            raise ParseError(f"unrecognized line type '{head}'", lineno)
    if mode is None:
        raise ParseError("missing problem line")
    if digon:
        raise digon
    count = sum(map(len, sets)) // (2 if mode == "edge" else 1)
    if count != m:
        raise ParseError(f"problem line declares {m} edges but {count} distinct ones parsed")
    return (UndirectedGraph if mode == "edge" else OrientedGraph)._from_sets(n, sets, count)


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
    """The coloring in a parsed coloring JSON, in one loop over its entries.
    Each entry is checked (a list of the kind's width holding ints >= 1, by
    type() so that JSON true and false do not pass as 1 and 0) and stored
    under its key, an edge as (min, max), so the EdgeColoring is built
    trusted.  A malformed entry anywhere is reported before a repeated one."""
    try:
        kind = obj["kind"]
        assign = obj["assign"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"coloring JSON missing field: {exc}") from None
    if kind not in ("edge", "vertex"):
        raise ParseError(f"unknown coloring kind {kind!r}")
    edges = kind == "edge"
    width, shape = (3, "[u, v, color]") if edges else (2, "[v, color]")
    bad = ParseError(f"{kind} assign entries must be {shape}, integers >= 1")
    if not isinstance(assign, list):
        raise bad
    colors: dict = {}
    for entry in assign:
        if not isinstance(entry, list) or len(entry) != width:
            raise bad
        if edges:
            u, v, c = entry
            if not (type(u) is int and type(v) is int and type(c) is int
                    and u >= 1 and v >= 1 and c >= 1):
                raise bad
            colors[(u - 1, v - 1) if u <= v else (v - 1, u - 1)] = c
        else:
            v, c = entry
            if not (type(v) is int and type(c) is int and v >= 1 and c >= 1):
                raise bad
            colors[v - 1] = c
    if len(colors) < len(assign):
        raise ParseError(f"coloring JSON lists the same {kind} twice")
    return EdgeColoring._from_normalized(colors) if edges else VertexColoring(colors)
