"""Littlewood-Richardson coefficients against an independent oracle.

The oracle expands s_gamma through the Jacobi-Trudi determinant into
signed products of complete homogeneous functions, then multiplies them
onto s_lambda one h_r at a time with the classical Pieri rule.  It never
touches tableaux, so it shares no code path with the implementation.
"""

from itertools import permutations

from hypothesis import given, settings, strategies as st

import pytest

from qweyl import lr
from qweyl.lr import _count_fillings, lr_cache, lr_cache_stats, lr_coefficient
from qweyl.partitions import (
    add_horizontal_strips,
    conjugate,
    contains,
    dominates,
    enumerate_partitions,
    padded,
    weight,
)


def _times_h(coeffs, r):
    out = {}
    for p, c in coeffs.items():
        for q in add_horizontal_strips(p, r):
            out[q] = out.get(q, 0) + c
    return out


def lr_oracle(lam, gamma, nu):
    """Coefficient of s_nu in s_lam * s_gamma via Jacobi-Trudi + Pieri."""
    m = len(gamma)
    total = 0
    for sigma in permutations(range(m)):
        degrees = [gamma[i] - i + sigma[i] for i in range(m)]
        if any(d < 0 for d in degrees):
            continue
        sign = 1
        seen = list(sigma)
        for i in range(m):  # parity of sigma
            for j in range(i + 1, m):
                if seen[i] > seen[j]:
                    sign = -sign
        coeffs = {tuple(lam): 1}
        for d in degrees:
            coeffs = _times_h(coeffs, d)
        total += sign * coeffs.get(tuple(nu), 0)
    return total


def test_against_oracle_exhaustive():
    small = enumerate_partitions(4)
    for lam in small:
        for gamma in small:
            for nu in enumerate_partitions(weight(lam) + weight(gamma)):
                if weight(nu) != weight(lam) + weight(gamma):
                    continue
                assert lr_coefficient(lam, gamma, nu) == lr_oracle(lam, gamma, nu), (
                    lam,
                    gamma,
                    nu,
                )


def test_known_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((3, 2, 1), (3, 2, 1), (4, 4, 2, 2)) == lr_oracle(
        (3, 2, 1), (3, 2, 1), (4, 4, 2, 2)
    )


def test_degenerate_cases():
    assert lr_coefficient((), (), ()) == 1
    assert lr_coefficient((2,), (), (2,)) == 1
    assert lr_coefficient((2,), (), (1, 1)) == 0
    assert lr_coefficient((3,), (1,), (2,)) == 0  # weight mismatch


parts = st.lists(st.integers(1, 4), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@settings(max_examples=60, deadline=None)
@given(parts, parts, parts)
def test_symmetry_and_support(lam, gamma, nu):
    c = lr_coefficient(lam, gamma, nu)
    assert c == lr_coefficient(gamma, lam, nu)
    assert c >= 0
    if c:
        assert weight(nu) == weight(lam) + weight(gamma)
        assert contains(nu, lam) and contains(nu, gamma)
        assert dominates(nu, lam)  # nu >= lam + gamma >= lam in dominance
    # conjugation symmetry
    assert c == lr_coefficient(conjugate(lam), conjugate(gamma), conjugate(nu))


def test_cache_statistics_move():
    lr_cache.clear()
    lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    entries, hits = lr_cache_stats()
    assert entries == 1 and hits == 0
    lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    entries, hits = lr_cache_stats()
    assert entries == 1 and hits == 1


def _triples(max_weight):
    """Every (lam, gamma, nu) with |lam| + |gamma| = |nu| <= max_weight."""
    for nu in enumerate_partitions(max_weight):
        for lam in enumerate_partitions(weight(nu)):
            for gamma in enumerate_partitions(weight(nu) - weight(lam),
                                              exact_weight=weight(nu) - weight(lam)):
                yield lam, gamma, nu


def _unpruned(lam, gamma, nu):
    """c^nu_{lam,gamma} by the filling search alone, on every triple the
    containment test lets through."""
    if not (contains(nu, lam) and contains(nu, gamma)):
        return 0
    return _count_fillings(nu, lam, gamma) if gamma else int(lam == nu)


def _mismatches():
    lr_cache.clear()
    try:
        return [t for t in _triples(9) if lr_coefficient(*t) != _unpruned(*t)]
    finally:
        lr_cache.clear()


def test_dominance_pruning_matches_the_filling_search():
    """lr_coefficient skips the search when nu_1 > lam_1 + gamma_1 or
    l(nu) > l(lam) + l(gamma); on every triple with |nu| <= 9 it equals
    the search, and every nonzero coefficient has lam u gamma <= nu <=
    lam + gamma, the interval those two tests are read off."""
    assert not _mismatches()
    triples = list(_triples(9))
    skipped = nonzero = 0
    for lam, gamma, nu in triples:
        c = _unpruned(lam, gamma, nu)
        if c:
            nonzero += 1
            rows = max(len(lam), len(gamma))
            top = tuple(a + b for a, b in zip(padded(lam, rows), padded(gamma, rows)))
            union = tuple(sorted(lam + gamma, reverse=True))
            assert dominates(top, nu) and dominates(nu, union), (lam, gamma, nu)
        if gamma and contains(nu, lam) and contains(nu, gamma):
            skipped += lr._outside_interval(nu, lam, gamma)
    assert len(triples) > 15000 and nonzero > 2500 and skipped > 500


_OUTSIDE = lr._outside_interval


@pytest.mark.parametrize("outside", [
    # the interval reversed
    lambda nu, lam, gamma: (nu[0] < (lam[0] if lam else 0) + gamma[0]
                            or len(nu) < len(lam) + len(gamma)),
    # lam + gamma as the lower end
    lambda nu, lam, gamma: nu[0] < (lam[0] if lam else 0) + gamma[0],
    # one box of slack too few
    lambda nu, lam, gamma: _OUTSIDE(nu, lam, gamma) or nu[0] == (lam[0] if lam else 0) + gamma[0],
])
def test_a_wrong_dominance_interval_is_caught(monkeypatch, outside):
    monkeypatch.setattr(lr, "_outside_interval", outside)
    assert _mismatches()


def test_a_pruned_zero_is_memoised():
    # (3, 1) holds (1, 1), but its first row is longer than that of
    # (1, 1) + (1, 1): no search, and the 0 is stored, so the second
    # query is a hit
    lr_cache.clear()
    assert lr_coefficient((1, 1), (1, 1), (3, 1)) == 0
    assert lr_cache_stats() == (1, 0)
    assert lr_coefficient((1, 1), (1, 1), (3, 1)) == 0
    assert lr_cache_stats() == (1, 1)
