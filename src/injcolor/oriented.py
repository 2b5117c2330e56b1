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
from typing import Iterable, Sequence

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
from .injective import InvalidColoringError
from .rng import pair_bit

FULL_BUILD_ATTEMPTS = 64


class FullGraphConstructionError(RuntimeError):
    pass


class NoWitnessError(RuntimeError):
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

    base must be a valid oriented coloring of D with all arcs inside U
    removed; the result is then a valid oriented coloring of D itself.  The
    precondition is not checked here; the pipelines verify the result in
    report.checks.
    """
    out = dict(base.colors)
    fresh = max(out.values(), default=0) + 1
    for u in sorted(set(U)):
        out[u] = fresh
        fresh += 1
    return VertexColoring(out)


def greedy_2dipath(D: OrientedGraph) -> VertexColoring:
    """Greedy 2-dipath coloring along the constraint graph's degeneracy order."""
    constraints = two_dipath_constraint_graph(D)
    return greedy_color(constraints, degeneracy_order(constraints))


def sign_vector(D: OrientedGraph, U: Sequence[int], v: int) -> tuple[int, ...]:
    """Entry i is +1 if the arc goes v -> U[i], and -1 if it goes U[i] -> v."""
    entries = []
    for u in U:
        if u == v:
            raise ValueError("v may not appear in U")
        if D.has_arc(v, u):
            entries.append(1)
        elif D.has_arc(u, v):
            entries.append(-1)
        else:
            raise ValueError(f"{u} is not adjacent to {v}")
    return tuple(entries)


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

    def part_of(self, v: int) -> int:
        return v // self.N

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

    def arcs(self):
        for u in range(self.n):
            rest = self._out[u]
            while rest:
                low = rest & -rest
                yield (u, low.bit_length() - 1)
                rest ^= low


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
    d >= 2, so redraws are rare.
    """
    if k < 5 or d < 2:
        raise ValueError("requires k >= 5 and d >= 2")
    part_size = full_part_size(k, d)
    n = k * part_size
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
    directions match q entrywise.
    """
    n, N, k, d = H.n, H.N, H.k, H.d
    if N < 1:
        return False
    out_masks = H._out
    in_masks = _in_masks(H)
    all_mask = (1 << n) - 1

    if d == 2:
        # For a fixed u and sign toward u, the witness pool W inside the part
        # is fixed; the pairs (u, v) for all v succeed iff the union of the
        # witnesses' out- and in-masks covers every other outside vertex.
        for part in range(k):
            pmask = ((1 << N) - 1) << (part * N)
            outside = all_mask & ~pmask
            for u in range(n):
                if u // N == part:
                    continue
                required = outside & ~(1 << u)
                for pool in (in_masks[u] & pmask, out_masks[u] & pmask):
                    if pool == 0:
                        return False
                    cover_out = 0
                    cover_in = 0
                    rest = pool
                    while rest:
                        low = rest & -rest
                        x = low.bit_length() - 1
                        cover_out |= out_masks[x]
                        cover_in |= in_masks[x]
                        if not (required & ~cover_out) and not (required & ~cover_in):
                            break
                        rest ^= low
                    else:
                        return False
        return True

    from itertools import combinations, product

    for part in range(k):
        pmask = ((1 << N) - 1) << (part * N)
        outside = [v for v in range(n) if v // N != part]
        for combo in combinations(outside, d):
            choices = [(in_masks[u] & pmask, out_masks[u] & pmask) for u in combo]
            for signs in product((0, 1), repeat=d):
                m = pmask
                for (plus, minus), s in zip(choices, signs):
                    m &= plus if s == 0 else minus
                    if m == 0:
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
