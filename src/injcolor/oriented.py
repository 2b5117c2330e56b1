"""Oriented-coloring constructions and verifiers.

An oriented coloring is a proper vertex coloring in which no ordered color
pair appears on arcs in both directions.  This module derives oriented
colorings from injective edge colorings, augments them with unique colors,
builds 2-dipath colorings greedily, constructs sign-pattern-rich oriented
multipartite target graphs, and embeds low-degeneracy graphs into those
targets by homomorphism.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import BudgetExceededError, InjcolorError, InvalidColoringError
from .graphs import (
    EdgeColoring,
    OrientedGraph,
    VertexColoring,
    VertexOrdering,
    canonical_color_ids,
    check_domain,
    degeneracy_order,
    greedy_color,
    two_dipath_constraint_graph,
)
from .rng import pair_bit

FULL_BUILD_ATTEMPTS = 64
FULL_VERTEX_BUDGET = 4096  # the most vertices k * N that build_full_graph draws


class FullGraphConstructionError(RuntimeError, InjcolorError):
    pass


class NoWitnessError(RuntimeError, InjcolorError):
    """No target vertex realizes the required sign pattern; this signals a
    precondition violation, since a full target always has a witness."""


def oriented_from_injective(D: OrientedGraph, coloring: EdgeColoring) -> VertexColoring:
    """Vertex coloring by the pair (colors on out-arcs, colors on in-arcs).

    Given a valid injective edge coloring with k colors, the resulting
    vertex coloring is a valid oriented coloring with at most 4^k colors.
    One pass over the out-sets reads each arc's color by its (min, max) key
    and adds it at both ends; no in-sets are built.  The precondition is not
    checked here (an arc without a color raises KeyError): the pipelines
    check their result in report.checks, and the CLI runs verify_injective
    on a user's coloring before calling this.
    """
    colors = coloring.colors
    outgoing: list[set[int]] = [set() for _ in range(D.n)]
    incoming: list[set[int]] = [set() for _ in range(D.n)]
    for v, heads in enumerate(D._out):
        at_v = outgoing[v]
        for w in heads:
            c = colors[(v, w) if v < w else (w, v)]
            at_v.add(c)
            incoming[w].add(c)
    return VertexColoring(canonical_color_ids(
        {v: (tuple(sorted(outgoing[v])), tuple(sorted(incoming[v]))) for v in range(D.n)}))


def add_unique_colors(D: OrientedGraph, U: Iterable[int], base: VertexColoring) -> VertexColoring:
    """Recolor each vertex of U with a fresh color nobody else uses.

    Fresh colors count up from 1 past the largest base color kept outside U.
    base must be a valid oriented coloring of D with all arcs inside U
    removed; the result is then a valid oriented coloring of D itself.  The
    precondition is not checked here; the pipelines verify the result in
    report.checks.
    """
    unique = set(U)
    out = dict(base.colors)
    fresh = max((c for v, c in out.items() if v not in unique), default=0) + 1
    for u in sorted(unique):
        out[u] = fresh
        fresh += 1
    return VertexColoring(out)


def greedy_2dipath(D: OrientedGraph) -> VertexColoring:
    """Greedy 2-dipath coloring along the constraint graph's degeneracy order."""
    constraints = two_dipath_constraint_graph(D)
    return greedy_color(constraints, degeneracy_order(constraints))


def full_part_size(k: int, d: int) -> int:
    """ceil(8^d * ln k), the part size making random orientations full."""
    return math.ceil(8**d * math.log(k))


class FullTarget:
    """Orientation of the complete k-partite graph with N vertices per part,
    meant to realize every length-d sign pattern toward every part.

    Part i occupies vertex ids [i*N, (i+1)*N).  Subclasses store the
    orientation and answer has_arc(u, v).
    """

    def __init__(self, k: int, part_size: int, d: int) -> None:
        self.k = k
        self.N = part_size
        self.d = d
        self.n = k * part_size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, N={self.N}, d={self.d})"


class FullGraph(FullTarget):
    """Full target certified by verify_full, stored as per-vertex
    out-neighbor bitmasks."""

    def __init__(self, k: int, part_size: int, d: int, out_masks: list[int]) -> None:
        super().__init__(k, part_size, d)
        self._out = out_masks

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self._out)


class SampledFullOrientation(FullTarget):
    """Implicit random orientation of a complete k-partite graph.

    Arc directions come from a keyed hash, so the graph never materializes;
    nothing certifies fullness.  Used only when the certified construction
    is out of budget and the caller explicitly opted out of verification.
    """

    def __init__(self, k: int, part_size: int, d: int, rng_seed: int) -> None:
        super().__init__(k, part_size, d)
        self.seed = rng_seed

    def has_arc(self, u: int, v: int) -> bool:
        if u == v or u // self.N == v // self.N:
            return False
        a, b = (u, v) if u < v else (v, u)
        forward = pair_bit(self.seed, a, b)
        return (u, v) == (a, b) if forward else (u, v) == (b, a)


def sample_full_orientation(k: int, d: int, rng_seed: int = 0) -> SampledFullOrientation:
    """Uncertified stand-in for build_full_graph at budgets where exhaustive
    verification is infeasible.  pair_bit hashes vertex ids as 64-bit words,
    so a target whose k * N ids do not all lie below 2^64 raises
    BudgetExceededError, an order with 8^d >= 2^64 before 8^d * ln k."""
    if k < 5 or d < 2:
        raise ValueError("requires k >= 5 and d >= 2")
    part_size = full_part_size(k, d) if 3 * d < 64 else 1 << 64  # else N > 8^d >= 2^64
    if k * part_size > 1 << 64:
        raise BudgetExceededError(
            f"a sampled full target of order {d} on {k} parts has vertex ids beyond 2^64, "
            "the width of the hash that orients its arcs."
        )
    return SampledFullOrientation(k, part_size, d, rng_seed)


def build_full_graph(k: int, d: int, rng_seed: int = 0) -> FullGraph:
    """Random orientation of the complete k-partite graph with parts of size
    ceil(8^d * ln k), redrawn until verify_full certifies it.

    The failure probability of a single draw is bounded by
    k * (k*N)^d * 2^d * exp(-N / 2^d), which is far below 1 for k >= 5 and
    d >= 2, so redraws are rare.  Targets of more than FULL_VERTEX_BUDGET
    vertices raise BudgetExceededError before anything is drawn; that refuses
    every d >= 3, on which verify_full could not finish, since there
    k * N >= 5 * 825 = 4125.
    """
    if k < 5 or d < 2:
        raise ValueError("requires k >= 5 and d >= 2")
    # A part holds more than 8^d = 2^(3d) vertices (ln k > 1), so an order whose
    # 2^(3d) alone passes the budget is refused before the float 8^d * ln k.
    if 3 * d >= FULL_VERTEX_BUDGET.bit_length():
        raise BudgetExceededError(
            f"a full target of order {d} exceeds the budget {FULL_VERTEX_BUDGET} vertices "
            "in one part alone."
        )
    part_size = full_part_size(k, d)
    n = k * part_size
    if n > FULL_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"a full target with {n} vertices exceeds the budget {FULL_VERTEX_BUDGET}."
        )
    rng = random.Random(rng_seed)
    for _ in range(FULL_BUILD_ATTEMPTS):
        candidate = FullGraph(k, part_size, d, _draw_out_masks(rng, n, part_size))
        if verify_full(candidate):
            return candidate
    raise FullGraphConstructionError(
        f"no full orientation for (k={k}, d={d}) in {FULL_BUILD_ATTEMPTS} attempts"
    )


def _draw_out_masks(rng: random.Random, n: int, part_size: int) -> list[int]:
    """Out-masks orienting each pair u < v of different parts, in the order
    u, then v, as u -> v when rng.random() < 0.5.  CPython's random() takes
    two 32-bit words and is below 0.5 exactly when the first is below 2^31,
    so one getrandbits(64 * count) per row gives its count coins as bit 31
    of every other word and leaves rng where count random() calls would."""
    forward = np.zeros((n, n), dtype=bool)
    for u in range(n - part_size):
        start = (u // part_size + 1) * part_size
        count = n - start
        words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
        coins = words[::2] < 1 << 31
        forward[u, start:] = coins
        forward[start:, u] = ~coins
    packed = np.packbits(forward, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _in_masks(H: FullGraph) -> list[int]:
    """Per-vertex in-neighbor bitmasks: bit u of in-mask v is bit v of
    out-mask u, so they are the rows of the transposed out-mask bit matrix."""
    width = (H.n + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in H._out), np.uint8)
    bits = np.unpackbits(rows.reshape(H.n, width), axis=1, bitorder="little")[:, :H.n]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def verify_full(H: FullGraph) -> bool:
    """Exhaustively check that every part realizes every sign pattern.

    For every part i, every ordered tuple of d distinct vertices outside it,
    and every vector q in {-1, +1}^d, some x in part i must have arcs whose
    directions match q entrywise; a part with fewer than d outside vertices
    holds vacuously.  The check fixes d - 1 of the vertices as an unordered
    prefix with its signs: their common witnesses form a pool W inside part
    i, and every choice of the last vertex and sign succeeds iff the union
    of W's out-masks and the union of W's in-masks each cover every other
    outside vertex.  That is C(n - N, d - 1) * 2^(d - 1) pool scans per
    part, which is why build_full_graph's vertex budget stops it at d = 2.
    The in-masks come from one transposition of the out-mask bit matrix
    (_in_masks).  A target with empty parts (N = 0) is refused.
    """
    n, N, k, d = H.n, H.N, H.k, H.d
    if N < 1:
        return False
    out_masks = H._out
    in_masks = _in_masks(H)
    all_mask = (1 << n) - 1
    for part in range(k):
        pmask = ((1 << N) - 1) << (part * N)
        outside = all_mask & ~pmask
        others = [v for v in range(n) if v // N != part]
        if len(others) < d:
            continue
        for prefix in combinations(others, d - 1):
            required = outside
            pools = [pmask]
            for u in prefix:
                required &= ~(1 << u)
                pools = [pool & mask for pool in pools for mask in (in_masks[u], out_masks[u])]
            for pool in pools:
                cover_out = 0
                cover_in = 0
                while pool:
                    low = pool & -pool
                    x = low.bit_length() - 1
                    cover_out |= out_masks[x]
                    cover_in |= in_masks[x]
                    if not (required & ~cover_out) and not (required & ~cover_in):
                        break
                    pool ^= low
                else:
                    return False
    return True


def homomorphism_to_full(
    D: OrientedGraph,
    ordering: VertexOrdering,
    psi: VertexColoring,
    H: FullTarget,
) -> dict[int, int]:
    """Arc-preserving map from D into the full graph H.

    psi must be a valid 2-dipath coloring of D with colors in 1..H.k, and
    the ordering a permutation of D's vertices witnessing degeneracy at
    most H.d.  Vertices are embedded along the ordering; each one goes to
    the smallest-id vertex of its psi-part whose arc directions toward its
    earlier neighbors, those already placed in the mapping, match; a placed
    vertex joins its out-neighbors' lists of placed tails.  Fullness of H
    guarantees such a witness exists.  That psi is a 2-dipath coloring is
    not checked here (only its domain, color range and the ordering are);
    the pipeline verifies the final coloring in report.checks.
    """
    check_domain(D, psi)
    if any(not 1 <= c <= H.k for c in psi.colors.values()):
        raise InvalidColoringError(f"psi uses colors outside 1..{H.k}")
    if sorted(ordering.order) != list(range(D.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    if ordering.d > H.d:
        raise ValueError(
            f"ordering witnesses degeneracy {ordering.d} above the target's order {H.d}"
        )
    mapping: dict[int, int] = {}
    tails: list[list[int]] = [[] for _ in range(D.n)]  # placed in-neighbors
    for v in ordering.order:
        # (u, +1) for each placed out-neighbor u, (u, -1) for each placed in-neighbor.
        placed = sorted([(u, 1) for u in D._out[v] if u in mapping]
                        + [(u, -1) for u in tails[v]])
        constraints: dict[int, int] = {}
        for u, sign in placed:
            image = mapping[u]
            if constraints.setdefault(image, sign) != sign:
                # Opposite signs toward one image need a directed 2-path
                # between equal psi colors, which a 2-dipath coloring excludes.
                raise NoWitnessError(f"conflicting sign requirements toward image {image}")
        part = range((psi[v] - 1) * H.N, psi[v] * H.N)
        witness = next((x for x in part if all(
            H.has_arc(x, image) if sign == 1 else H.has_arc(image, x)
            for image, sign in constraints.items()
        )), None)
        if witness is None:
            raise NoWitnessError(
                f"no witness in part {psi[v]} for vertex {v}; the target is not full "
                "or a precondition was violated"
            )
        mapping[v] = witness
        for w in D._out[v]:
            tails[w].append(v)
    return mapping


def coloring_from_homomorphism(mapping: dict[int, int]) -> VertexColoring:
    """Read a homomorphism into a target as a coloring by target vertices."""
    return VertexColoring(canonical_color_ids(mapping))


def verify_homomorphism(D: OrientedGraph, target, mapping: dict[int, int]) -> bool:
    """True iff every arc of D maps to an arc of the target.

    Raises ValueError unless every vertex of D is mapped.
    """
    if not all(v in mapping for v in range(D.n)):
        raise ValueError("mapping is not total on the vertex set")
    return all(target.has_arc(mapping[u], mapping[v]) for u, v in D.arcs())


def verify_oriented_coloring(D: OrientedGraph, coloring: VertexColoring) -> bool:
    """True iff the coloring is proper and no ordered color pair occurs on
    arcs in both directions; check_domain refuses any other domain than V(D).
    The colors are then read as a list by id, along the out-sets.  An arc
    with equal end colors gives a pair that is its own reverse."""
    check_domain(D, coloring)
    color = list(map(coloring.colors.__getitem__, range(D.n)))
    pairs = {(color[u], color[v]) for u, heads in enumerate(D._out) for v in heads}
    return all((b, a) not in pairs for a, b in pairs)


def verify_2dipath(D: OrientedGraph, coloring: VertexColoring) -> bool:
    """True iff the ends of every arc and directed 2-path differ; the domain must be V(D)."""
    check_domain(D, coloring)
    color = coloring.colors
    return all(color[u] != color[v] for u, adj in enumerate(two_dipath_constraint_graph(D)._adj)
               for v in adj)
