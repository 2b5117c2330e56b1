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

from .errors import BudgetExceededError, InjcolorError, InvalidColoringError
from .graphs import (
    EdgeColoring,
    OrientedGraph,
    VertexColoring,
    VertexOrdering,
    canonical_color_ids,
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
    The precondition is not checked here: the pipelines check their result
    in report.checks, and the CLI runs verify_injective on a user's coloring
    before calling this.
    """
    pairs: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for v in range(D.n):
        outgoing = sorted({coloring[(v, w)] for w in D.out_neighbors(v)})
        incoming = sorted({coloring[(u, v)] for u in D.in_neighbors(v)})
        pairs[v] = (tuple(outgoing), tuple(incoming))
    return VertexColoring(canonical_color_ids(pairs))


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

    @property
    def parts(self) -> list[range]:
        return [range(i * self.N, (i + 1) * self.N) for i in range(self.k)]

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
    verification is infeasible."""
    if k < 5 or d < 2:
        raise ValueError("requires k >= 5 and d >= 2")
    return SampledFullOrientation(k, full_part_size(k, d), d, rng_seed)


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
    part_size = full_part_size(k, d)
    n = k * part_size
    if n > FULL_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"a full target with {n} vertices exceeds the budget {FULL_VERTEX_BUDGET}."
        )
    rng = random.Random(rng_seed)
    for _ in range(FULL_BUILD_ATTEMPTS):
        out = [0] * n
        for u in range(n):
            start = (u // part_size + 1) * part_size
            for v in range(start, n):
                if rng.random() < 0.5:
                    out[u] |= 1 << v
                else:
                    out[v] |= 1 << u
        candidate = FullGraph(k, part_size, d, out)
        if verify_full(candidate):
            return candidate
    raise FullGraphConstructionError(
        f"no full orientation for (k={k}, d={d}) in {FULL_BUILD_ATTEMPTS} attempts"
    )


def _in_masks(H: FullGraph) -> list[int]:
    masks = [0] * H.n
    for u in range(H.n):
        rest = H._out[u]
        while rest:
            low = rest & -rest
            masks[low.bit_length() - 1] |= 1 << u
            rest ^= low
    return masks


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
    the ordering must witness degeneracy at most H.d.  Vertices are embedded
    along the ordering; each one goes to the smallest-id vertex of its
    psi-part whose arc directions toward the already-embedded neighbors
    match.  Fullness of H guarantees such a witness exists.  That psi is a
    2-dipath coloring is not checked here (only its color range and the
    ordering are); the pipeline verifies the final coloring in report.checks.
    """
    if any(not 1 <= c <= H.k for c in psi.colors.values()):
        raise InvalidColoringError(f"psi uses colors outside 1..{H.k}")
    if set(ordering.order) != set(range(D.n)):
        raise ValueError("ordering does not cover the vertex set")
    if ordering.d > H.d:
        raise ValueError(
            f"ordering witnesses degeneracy {ordering.d} above the target's order {H.d}"
        )
    pos = ordering.positions()
    und = D.underlying()
    parts = H.parts
    mapping: dict[int, int] = {}
    for v in ordering.order:
        earlier = sorted(u for u in und.neighbors(v) if pos[u] < pos[v])
        constraints: dict[int, int] = {}
        for u in earlier:
            sign = 1 if D.has_arc(v, u) else -1
            image = mapping[u]
            if constraints.setdefault(image, sign) != sign:
                # Opposite signs toward one image need a directed 2-path
                # between equal psi colors, which a 2-dipath coloring excludes.
                raise NoWitnessError(f"conflicting sign requirements toward image {image}")
        witness = None
        for x in parts[psi[v] - 1]:
            if all(
                H.has_arc(x, image) if sign == 1 else H.has_arc(image, x)
                for image, sign in constraints.items()
            ):
                witness = x
                break
        if witness is None:
            raise NoWitnessError(
                f"no witness in part {psi[v]} for vertex {v}; the target is not full "
                "or a precondition was violated"
            )
        mapping[v] = witness
    return mapping


def coloring_from_homomorphism(mapping: dict[int, int]) -> VertexColoring:
    """Read a homomorphism into a target as a coloring by target vertices."""
    return VertexColoring(canonical_color_ids(mapping))


def verify_homomorphism(D: OrientedGraph, target, mapping: dict[int, int]) -> bool:
    """True iff every arc of D maps to an arc of the target."""
    for u, v in D.arcs():
        if u not in mapping or v not in mapping:
            raise ValueError("mapping is not total on the vertex set")
        if not target.has_arc(mapping[u], mapping[v]):
            return False
    return True


def verify_oriented_coloring(D: OrientedGraph, coloring: VertexColoring) -> bool:
    """True iff the coloring is proper and no ordered color pair occurs on
    arcs in both directions."""
    for v in range(D.n):
        if v not in coloring.colors:
            raise InvalidColoringError(f"vertex {v} has no color")
    pairs = set()
    for u, v in D.arcs():
        a, b = coloring[u], coloring[v]
        if a == b:
            return False
        pairs.add((a, b))
    return all((b, a) not in pairs for a, b in pairs)


def verify_2dipath(D: OrientedGraph, coloring: VertexColoring) -> bool:
    """True iff endpoints of every arc and every directed 2-path differ."""
    for v in range(D.n):
        if v not in coloring.colors:
            raise InvalidColoringError(f"vertex {v} has no color")
    return all(coloring[u] != coloring[v] for u, v in two_dipath_constraint_graph(D).edges())
