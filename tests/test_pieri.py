"""Stable one-row tensor (Pieri-type) multiplicities.

Oracle: the same multiplicity written through Littlewood-Richardson
coefficients, mult = sum over alpha of c^gamma_{alpha,(a)} c^lam_{alpha,(l-a)},
using the separately verified LR implementation.
"""

import pytest

from qweyl.lr import lr_coefficient
from qweyl.partitions import (
    enumerate_partitions,
    is_horizontal_strip,
    weight,
)
from qweyl.pieri import _pieri_support, pieri_expand, stable_pieri
from strip_reference import pieri_support


def pieri_oracle(gamma, l, lam):
    total = 0
    for alpha in enumerate_partitions(weight(gamma)):
        for a in range(l + 1):
            row_a = (a,) if a else ()
            row_b = (l - a,) if l - a else ()
            total += lr_coefficient(alpha, row_a, gamma) * lr_coefficient(
                alpha, row_b, lam
            )
    return total


def test_examples():
    assert pieri_expand((), 3) == {(3,): 1}
    assert pieri_expand((1,), 1) == {(2,): 1, (1, 1): 1, (): 1}
    assert stable_pieri((1,), 2, (1,)) == 1
    assert stable_pieri((2, 1), 0, (2, 1)) == 1


def test_parity_and_range_vanishing():
    assert stable_pieri((2,), 1, (2,)) == 0  # odd weight gap
    assert stable_pieri((2,), 1, (4,)) == 0  # out of range
    assert stable_pieri((3,), 1, ()) == 0


def test_extreme_degrees_are_strip_indicators():
    for gamma in enumerate_partitions(5):
        for l in range(4):
            for lam in enumerate_partitions(weight(gamma) + l):
                if weight(lam) == weight(gamma) + l:
                    expect = 1 if is_horizontal_strip(gamma, lam) else 0
                    assert stable_pieri(gamma, l, lam) == expect
            for lam in enumerate_partitions(max(weight(gamma) - l, 0)):
                if weight(lam) == weight(gamma) - l:
                    expect = 1 if is_horizontal_strip(lam, gamma) else 0
                    assert stable_pieri(gamma, l, lam) == expect


def test_against_lr_oracle():
    for gamma in enumerate_partitions(4):
        for l in range(5):
            expansion = pieri_expand(gamma, l)
            for lam in enumerate_partitions(weight(gamma) + l):
                expect = pieri_oracle(gamma, l, lam)
                assert stable_pieri(gamma, l, lam) == expect, (gamma, l, lam)
                assert expansion.get(lam, 0) == expect


def test_expand_consistent_with_pointwise():
    for gamma in [(3, 1), (2, 2, 1)]:
        for l in (2, 3):
            expansion = pieri_expand(gamma, l)
            assert all(m > 0 for m in expansion.values())
            for lam, m in expansion.items():
                assert m == stable_pieri(gamma, l, lam)
                assert (weight(gamma) + l - weight(lam)) % 2 == 0


def test_expand_result_cannot_corrupt_the_memo():
    first = pieri_expand((2, 1), 2)
    expected = dict(first)
    first[(9,)] = 5
    first.pop((2, 1))
    assert pieri_expand((2, 1), 2) == expected
    assert pieri_expand((2, 1), 2) is not pieri_expand((2, 1), 2)


def test_support_matches_remove_then_add_reference():
    # all 469 keys with |gamma| <= 8, l <= 6: the same multiplicities,
    # inserted in the same order
    keys = [(gamma, l) for gamma in enumerate_partitions(8) for l in range(7)]
    assert len(keys) == 469
    for gamma, l in keys:
        assert _pieri_support(gamma, l) == pieri_support(gamma, l), (gamma, l)


def test_bool_strip_length_is_rejected():
    # True == 1, but a bool is no strip length
    with pytest.raises(ValueError, match="l must be an integer"):
        stable_pieri((1,), True, (2,))
    with pytest.raises(ValueError, match="l must be an integer"):
        pieri_expand((1,), False)
