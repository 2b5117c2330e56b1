"""Seeded instance generators: classical families, random degenerate graphs,
the sparse random orientation used as a lower-bound construction, and padding."""

from __future__ import annotations

import math
import random
from functools import cached_property
from itertools import combinations
from typing import Iterator

import numpy as np

from .graphs import OrientedGraph, UndirectedGraph


def complete_graph(n: int) -> UndirectedGraph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return UndirectedGraph(n, combinations(range(n), 2))


def path(n: int) -> UndirectedGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return UndirectedGraph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> UndirectedGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> UndirectedGraph:
    """Planar rows x cols grid; vertex (r, c) has id r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return UndirectedGraph(rows * cols, edges)


def genus_of_complete(n: int) -> int:
    """Euler genus of the complete graph, ceil((n-3)(n-4)/6), stated for n >= 8."""
    if n < 8:
        raise ValueError("the closed form is used only for n >= 8")
    return ((n - 3) * (n - 4) + 5) // 6


def edge_probability(n: int) -> float:
    """min(1, sqrt(150 ln n / n)), the density of the lower-bound construction."""
    return min(1.0, math.sqrt(150.0 * math.log(n) / n))


def random_genus_lowerbound(n: int, rng_seed: int = 0) -> OrientedGraph:
    """Sparse random orientation: each pair becomes an edge independently with
    probability min(1, sqrt(150 ln n / n)), oriented by a fair coin.

    The output is digon-free by construction (one orientation per sampled
    pair).  Sampling is vectorized row by row, and the arcs stay arrays: row
    order already sorts the heads within each tail, so one stable sort on the
    tails puts them in (tail, head) order.  The graph emits from the arrays
    and builds its out-sets on first adjacency read (_DrawnOrientedGraph).
    """
    if n < 2 or n % 2:
        raise ValueError("needs even n >= 2")
    if rng_seed < 0:  # numpy's generators take no negative seed
        raise ValueError(f"seed {rng_seed} is negative; it must be 0 or more")
    p = edge_probability(n)
    rng = np.random.default_rng(rng_seed)
    # The narrowest type that holds every id keeps the arrays small, and up
    # to 2^16 vertices lets the stable sort run as a radix sort.
    id_type = np.min_scalar_type(n - 1)
    tails, heads = [np.empty(0, id_type)], [np.empty(0, id_type)]
    for u in range(n - 1):
        picked = np.nonzero(rng.random(n - 1 - u) < p)[0]
        if picked.size == 0:
            continue
        forward = rng.random(picked.size) < 0.5
        others = (u + 1 + picked).astype(id_type)
        tails.append(np.where(forward, u, others))
        heads.append(np.where(forward, others, u))
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    order = np.argsort(tails, kind="stable")
    return _DrawnOrientedGraph(n, tails[order], heads[order])


class _DrawnOrientedGraph(OrientedGraph):
    """An OrientedGraph kept as its arcs' (tails, heads) arrays in (tail,
    head) order, which the caller guarantees distinct, loop- and digon-free."""

    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray) -> None:
        self.n, self.m = n, len(heads)
        self._arcs = (tails, heads)

    def _rows(self) -> Iterator[list[int]]:
        tails, heads = self._arcs
        bounds = tails.searchsorted(range(self.n + 1)).tolist()
        return (heads[a:b].tolist() for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def _out(self) -> list[set[int]]:
        values = list(range(self.n))  # shared int objects keep the sets lean
        return [set(map(values.__getitem__, row)) for row in self._rows()]


def pad_with_k5(G: UndirectedGraph, copies: int) -> UndirectedGraph:
    """Disjoint union of G and the given number of 5-cliques."""
    if copies < 0:
        raise ValueError("copies must be nonnegative")
    edges = list(G.edges())
    n = G.n
    for _ in range(copies):
        edges.extend((n + i, n + j) for i, j in combinations(range(5), 2))
        n += 5
    return UndirectedGraph(n, edges)


def random_degenerate_graph(n: int, d: int, rng_seed: int = 0) -> UndirectedGraph:
    """Each vertex joins min(i, d) uniformly chosen earlier vertices, so the
    identity order witnesses degeneracy at most d."""
    if n < 1 or d < 1:
        raise ValueError("needs n >= 1 and d >= 1")
    rng = random.Random(rng_seed)
    edges = []
    for i in range(1, n):
        for j in rng.sample(range(i), min(i, d)):
            edges.append((j, i))
    return UndirectedGraph(n, edges)


def random_orientation(G: UndirectedGraph, rng_seed: int = 0) -> OrientedGraph:
    """Orient each edge by an independent fair coin."""
    rng = random.Random(rng_seed)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in G.edges()]
    return OrientedGraph(G.n, arcs)
