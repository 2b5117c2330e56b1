"""Random subset families that isolate any element from any r-1 others."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, InjcolorError

MAX_BUILD_ATTEMPTS = 64
PAIR_BUDGET = 10**6  # the most (element, (r-1)-subset) pairs one verification may check
FLIP_BUDGET = 10**6  # the most coin flips, k per subset, one draw may make


class FamilyConstructionError(RuntimeError, InjcolorError):
    pass


@dataclass(frozen=True)
class SeparatingFamily:
    """Subsets of {1..k}: for any r distinct elements a1..ar some member
    contains a1 and none of a2..ar."""

    k: int
    r: int
    sets: tuple[frozenset[int], ...]


def family_size_bound(k: int, r: int) -> int:
    """ceil(e * r^2 * ln k), the number of random subsets drawn."""
    return math.ceil(math.e * r * r * math.log(k))


def build_separating_family(k: int, r: int, rng_seed: int = 0) -> SeparatingFamily:
    """Draw subsets with per-element probability 1/r until a draw verifies.

    A universe size k below 1 is refused; one of 1 <= k < r is padded up to
    r elements, since a family over a superset universe separates the
    original.  Deterministic for a given seed; retries consume the same
    seeded stream.  When the k * family_size_bound(k, r) coin flips of one
    draw exceed FLIP_BUDGET, or the k * C(k-1, r-1) pairs that
    verify_separating_family enumerates exceed PAIR_BUDGET, raises
    BudgetExceededError before anything is drawn (the flips first: unlike the
    pairs, they need no binomial).
    """
    if k < 1:
        raise ValueError(f"universe size k={k} must be at least 1")
    if r < 2:
        raise ValueError("separation order r must be at least 2")
    k = max(k, r)
    try:
        size = family_size_bound(k, r)
    except OverflowError:  # r * r overflows a float; k * r * r bounds the flips below
        size = r * r
    if k * size > FLIP_BUDGET:
        raise BudgetExceededError(
            f"drawing a family for (k={k}, r={r}) takes {k * size} coin flips, "
            f"beyond the budget {FLIP_BUDGET}"
        )
    pairs = k * math.comb(k - 1, r - 1)
    if pairs > PAIR_BUDGET:
        raise BudgetExceededError(
            f"verifying a family for (k={k}, r={r}) checks {pairs} pairs, "
            f"beyond the budget {PAIR_BUDGET}"
        )
    rng = random.Random(rng_seed)
    prob = 1.0 / r
    for _ in range(MAX_BUILD_ATTEMPTS):
        sets = tuple(
            frozenset(j for j in range(1, k + 1) if rng.random() < prob)
            for _ in range(size)
        )
        family = SeparatingFamily(k, r, sets)
        if verify_separating_family(family):
            return family
    raise FamilyConstructionError(
        f"no separating family for (k={k}, r={r}) in {MAX_BUILD_ATTEMPTS} attempts"
    )


def verify_separating_family(family: SeparatingFamily) -> bool:
    """Exhaustively check the separation condition for all r-tuples.

    Checking tuples of length exactly r suffices: any shorter tuple of
    distinct elements extends to one of length r inside the universe.
    """
    k, r = family.k, family.r
    if k < r or r < 2:
        return False
    masks = [sum(1 << (j - 1) for j in p) for p in family.sets]
    universe = range(1, k + 1)
    for a1 in universe:
        bit = 1 << (a1 - 1)
        containing = [m & ~bit for m in masks if m & bit]
        if not containing:
            return False
        for rest in combinations((x for x in universe if x != a1), r - 1):
            rest_mask = 0
            for x in rest:
                rest_mask |= 1 << (x - 1)
            if not any(m & rest_mask == 0 for m in containing):
                return False
    return True
