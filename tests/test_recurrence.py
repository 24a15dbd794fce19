"""Rank-lowering recurrence and the rank-stable limit series.

The recurrence is checked against the direct Weyl-group alternating sum
(independent code path), the limit series against the branching-based
harmonic coefficients, and against closed forms for one-row and
one-column shapes.
"""

import pytest

from qweyl.branching import harmonic_coeff_stable, sym_decomposition_finite
from qweyl.partitions import dominates, enumerate_partitions, padded, weight
from qweyl.qkostant import k_direct, weight_multiplicity
from qweyl.qseries import QSeries
from qweyl.recurrence import (
    brylinski_dims,
    build_frame,
    degree_bounds,
    _finite_pieri,
    _k_finite,
    _k_limit,
    _row_weight_mult,
    k_limit,
    k_recurrence_finite,
)
from qweyl.rootsystems import RootSystem, weyl_dim


def test_build_frame_examples():
    f = build_frame((4,), ())
    assert (f.p, f.R, f.gammas) == (1, (4,), ((),))
    f = build_frame((1, 1, 1), (1,))
    assert (f.p, f.R, f.gammas) == (1, (0,), ((1, 1),))
    f = build_frame((), ())
    assert (f.p, f.R, f.gammas) == (1, (0,), ((),))
    f = build_frame((3, 2), ())
    assert f.p == 2
    assert f.R == (3, 1)
    assert f.gammas == ((2,), (4,))


def test_recurrence_matches_direct_sum():
    for kind in "BCD":
        for n in (2, 3):
            rs = RootSystem(kind, n)
            for nu in enumerate_partitions(4):
                if len(nu) > n:
                    continue
                for mu in enumerate_partitions(weight(nu)):
                    if len(mu) > n or not dominates(nu, mu):
                        continue
                    assert k_recurrence_finite(rs, nu, mu) == k_direct(
                        rs, nu, mu
                    ), (rs.algebra, nu, mu)


def test_recurrence_matches_direct_rank4_spots():
    for rs in (RootSystem("B", 4), RootSystem("C", 4), RootSystem("D", 4)):
        for nu, mu in [((2, 1, 1), ()), ((1, 1, 1, 1), ()), ((2, 2), (1, 1))]:
            assert k_recurrence_finite(rs, nu, mu) == k_direct(rs, nu, mu), (
                rs.algebra,
                nu,
                mu,
            )


def test_recurrence_validates_shapes():
    with pytest.raises(ValueError):
        k_recurrence_finite(RootSystem("C", 2), (1, 1, 1), ())
    with pytest.raises(ValueError):
        k_recurrence_finite(RootSystem("B", 2), (1,), (1, 1, 1))


def test_recurrence_accepts_type_d_mirror_weights():
    for n in (3, 4):
        rs = RootSystem("D", n)
        weights = [p for p in enumerate_partitions(4) if len(p) <= n]
        weights += [p[:-1] + (-p[-1],) for p in weights if len(p) == n]
        for nu in weights:
            for mu in weights:
                assert k_recurrence_finite(rs, nu, mu) == k_direct(rs, nu, mu), (rs, nu, mu)


def test_finite_pieri_dimension_audit():
    # in both regimes, folded and mirrored components included, the
    # components must add up to dim V(gamma) * dim V((l))
    for kind in "BCD":
        for n in (2, 3, 4):
            rs = RootSystem(kind, n)
            for gamma in enumerate_partitions(4):
                if len(gamma) > n:
                    continue
                for l in range(4):
                    dec = _finite_pieri(rs, gamma, l)
                    total = sum(m * weyl_dim(rs, lam) for lam, m in dec.items())
                    assert total == weyl_dim(rs, gamma) * weyl_dim(rs, (l,)), (rs, gamma, l)


def test_row_weight_mult_matches_direct_sum():
    # closed form against dim V((l))_mu from the alternating sum, at signed
    # and permuted weights beta of the dominant mu (and |mu| = l+1 for zeros)
    cases = 0
    for kind in "BCD":
        for n in (2, 3, 4):
            rs = RootSystem(kind, n)
            for l in range(6):
                row = (l,) if l else ()
                for mu in enumerate_partitions(l + 1):
                    if len(mu) > n:
                        continue
                    want = weight_multiplicity(rs, row, mu)
                    mu_p = padded(mu, n)
                    for beta in (
                        tuple(-x if i % 2 else x for i, x in enumerate(reversed(mu_p))),
                        tuple(-x for x in mu_p[1:] + mu_p[:1]),
                    ):
                        cases += 1
                        assert _row_weight_mult(rs, l, beta) == want, (rs, l, beta)
    assert cases > 300


def test_memo_hits_return_same_object():
    calls = (
        (_k_limit, lambda: k_limit("sp", (3, 1), (1,), 5)),
        (sym_decomposition_finite, lambda: sym_decomposition_finite(RootSystem("D", 3), 2)),
        (_k_finite, lambda: k_recurrence_finite(RootSystem("B", 4), (2, 1), (1,))),
    )
    for memo, call in calls:
        first = call()
        hits = memo.cache_info().hits
        assert call() is first
        assert memo.cache_info().hits > hits, memo


def test_limit_base_cases():
    assert k_limit("so", (), (), 5) == QSeries.one().truncated(5)
    assert k_limit("sp", (1,), (1,), 5) == QSeries.one().truncated(5)
    # odd total weight gap vanishes in the stable limit
    assert k_limit("so", (1,), (), 5).is_zero()


def test_limit_matches_harmonic_coefficients():
    D = 5
    for family in ("so", "sp"):
        for nu in enumerate_partitions(4):
            series = k_limit(family, nu, (), D)
            for k in range(D + 1):
                assert series[k] == harmonic_coeff_stable(family, k, nu), (
                    family,
                    nu,
                    k,
                )


def test_limit_is_the_large_rank_limit():
    D = 3
    rank = 7
    for kind, family in (("B", "so"), ("C", "sp"), ("D", "so")):
        rs = RootSystem(kind, rank)
        for nu in enumerate_partitions(3):
            for mu in enumerate_partitions(weight(nu)):
                if (weight(nu) - weight(mu)) % 2 or not dominates(nu, mu):
                    continue
                finite = k_recurrence_finite(rs, nu, mu).truncated(D)
                assert finite == k_limit(family, nu, mu, D), (kind, nu, mu)


def _n_stat(mu):
    return sum(i * x for i, x in enumerate(mu))


def test_limit_row_shapes_factor():
    D = 8
    for m in range(1, 7):
        for mu in enumerate_partitions(m):
            if (m - weight(mu)) % 2:
                continue
            rest = m - weight(mu)
            lhs = k_limit("sp", (m,), mu, D)
            rhs = k_limit("sp", (rest,) if rest else (), (), D).shift(_n_stat(mu))
            assert lhs.coeffs == rhs.truncated(D).coeffs, (m, mu)


def test_limit_column_shapes_shift():
    D = 8
    for m in range(8):
        for p in range(m % 2, m + 1, 2):
            lhs = k_limit("sp", (1,) * m, (1,) * p, D)
            rhs = k_limit("sp", (1,) * (m - p), (), D)
            assert lhs == rhs, (m, p)


def test_limit_memoizes_consistently():
    a = k_limit("so", (2, 2), (), 6)
    b = k_limit("so", (2, 2), (), 4)
    assert a.truncated(4).coeffs == b.coeffs


def test_degree_bounds_examples():
    assert degree_bounds(RootSystem("C", 2), (2,), ()) == (1, 3)
    assert degree_bounds(RootSystem("B", 3), (1,), ()) == (1, 3)
    assert degree_bounds(RootSystem("D", 3), (2, 1, 1), (2, 1, 1)) == (0, 0)


def test_degree_bounds_hold_and_top_is_monic():
    for kind in "BCD":
        rs = RootSystem(kind, 3)
        for nu in enumerate_partitions(4):
            if len(nu) > 3:
                continue
            for mu in enumerate_partitions(weight(nu)):
                if len(mu) > 3 or not dominates(nu, mu):
                    continue
                series = k_direct(rs, nu, mu)
                if series.is_zero():
                    continue
                lo, hi = degree_bounds(rs, nu, mu)
                assert lo <= series.low_degree()
                assert series.degree() == hi and series[hi] == 1, (kind, nu, mu)


def test_brylinski_dims():
    rs = RootSystem("C", 3)
    assert brylinski_dims(rs, (2,), (), -1) == 0
    prev = 0
    for k in range(6):
        cur = brylinski_dims(rs, (2, 1, 1), (1, 1), k)
        assert cur >= prev
        prev = cur
    assert prev == weight_multiplicity(rs, (2, 1, 1), (1, 1))
