from itertools import permutations

import pytest

from injcolor import (
    BudgetExceededError,
    FamilyConstructionError,
    SeparatingFamily,
    build_separating_family,
    family_size_bound,
    verify_separating_family,
)
from injcolor import separating


def test_size_bound_values():
    assert family_size_bound(2, 2) == 8  # ceil(4e ln 2)
    assert family_size_bound(5, 2) == 18  # ceil(4e ln 5) = ceil(17.4996)
    assert family_size_bound(12, 3) == 61  # ceil(9e ln 12)


def test_build_examples():
    fam = build_separating_family(2, 2, 0)
    assert len(fam.sets) <= 8
    assert verify_separating_family(fam)

    fam5 = build_separating_family(5, 2, 0)
    assert len(fam5.sets) <= 18

    fam12 = build_separating_family(12, 3, 0)
    assert len(fam12.sets) <= 61
    assert verify_separating_family(fam12)


def test_verify_examples():
    yes = SeparatingFamily(2, 2, (frozenset({1}), frozenset({2})))
    assert verify_separating_family(yes)
    no = SeparatingFamily(2, 2, (frozenset({1, 2}),))
    assert not verify_separating_family(no)
    empty = SeparatingFamily(3, 2, ())
    assert not verify_separating_family(empty)
    # The singletons {1}, ..., {k} separate at every order r <= k, which is
    # why the class step uses them without a draw or this check.
    for k in range(2, 7):
        singletons = tuple(frozenset({c}) for c in range(1, k + 1))
        assert all(verify_separating_family(SeparatingFamily(k, r, singletons))
                   for r in range(2, k + 1))


def test_shorter_tuples_also_separated():
    # the r-tuple check implies separation of all shorter tuples
    fam = build_separating_family(6, 3, 2)
    for length in (2, 3):
        for tup in permutations(range(1, 7), length):
            a1, rest = tup[0], set(tup[1:])
            assert any(a1 in p and not (rest & p) for p in fam.sets)


def test_deterministic_and_seed_sensitive():
    a = build_separating_family(9, 2, 123)
    b = build_separating_family(9, 2, 123)
    assert a == b
    c = build_separating_family(9, 2, 124)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_universe_padding_when_r_exceeds_k():
    fam = build_separating_family(2, 4, 0)
    assert fam.k == 4  # padded up to r
    assert verify_separating_family(fam)
    assert len(fam.sets) <= family_size_bound(4, 4)


@pytest.mark.parametrize("k", [0, -3])
def test_refuses_a_universe_below_one(k, monkeypatch):
    # refused before anything is drawn, not padded up to r like 1 <= k < r
    monkeypatch.setattr(separating, "random", None)  # a draw would fail on it
    with pytest.raises(ValueError, match=f"universe size k={k} must be at least 1"):
        build_separating_family(k, 2, 0)


def test_refuses_families_over_the_pair_budget(monkeypatch):
    # 30 * C(29, 7) = 46.8 M pairs: refused before anything is drawn
    with pytest.raises(BudgetExceededError, match="46823400 pairs"):
        build_separating_family(30, 8, 0)
    # the budget bounds k * C(k-1, r-1) inclusively: (12, 3) checks 660 pairs
    monkeypatch.setattr(separating, "PAIR_BUDGET", 660)
    assert verify_separating_family(build_separating_family(12, 3, 0))
    monkeypatch.setattr(separating, "PAIR_BUDGET", 659)
    with pytest.raises(BudgetExceededError):
        build_separating_family(12, 3, 0)


def test_refuses_draws_over_the_flip_budget(monkeypatch):
    # the budget bounds k * family_size_bound(k, r) inclusively: (12, 3) flips 12 * 61
    monkeypatch.setattr(separating, "FLIP_BUDGET", 732)
    assert verify_separating_family(build_separating_family(12, 3, 0))
    monkeypatch.setattr(separating, "FLIP_BUDGET", 731)
    with pytest.raises(BudgetExceededError, match="732 coin flips"):
        build_separating_family(12, 3, 0)
    monkeypatch.undo()
    # k = r = 1000 checks only 1000 pairs, but one draw of ceil(e r^2 ln k)
    # subsets flips 1000 coins for each of 18,777,226 of them: refused at once.
    with pytest.raises(BudgetExceededError,
                       match="18777226000 coin flips, beyond the budget 1000000"):
        build_separating_family(1000, 1000, 0)
    # e * r^2 overflows a float at r = 10^200; k * r^2 flips still refuse it
    with pytest.raises(BudgetExceededError, match="coin flips, beyond the budget 1000000"):
        build_separating_family(2, 10**200, 0)


def test_rejects_tiny_r():
    with pytest.raises(ValueError):
        build_separating_family(5, 1, 0)


def test_duplicates_are_retained():
    fam = build_separating_family(2, 2, 1)
    assert len(fam.sets) == family_size_bound(2, 2)  # duplicates not collapsed
