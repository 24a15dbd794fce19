"""Acceptance gate: the ten headline checks, one pass/fail line each.

Every check compares two independently computed quantities with exact
arithmetic.  Criterion 9 is expected to fail: three independent
computations (direct alternating sum, the degree window, and the
principal filtration) all give q^n for the vector representation of
so_{2n+1}, not the q^{n-1} the check demands; it is kept as a strict
expected failure so any change in behaviour is flagged.
"""

import pytest

from qweyl.branching import harmonic_char_finite, sym_mult_finite, sym_mult_stable
from qweyl.hall_littlewood import k_matrix, p_basis_matrix
from qweyl.partitions import (
    conjugate,
    dominates,
    enumerate_partitions,
    weight,
)
from qweyl.qkostant import k_direct
from qweyl.qseries import QSeries
from qweyl.recurrence import degree_bounds, k_limit, k_recurrence_finite
from qweyl.rootsystems import RootSystem
from littlewood_reference import sym_mult_direct


def _report(num: int, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}")


def _geom(shift: int, l: int, trunc: int) -> QSeries:
    out = QSeries.monomial(shift, 1, trunc=trunc)
    for i in range(1, l + 1):
        out = out.div_one_minus_qm(2 * i, trunc)
    return out


def test_criterion_01_row_column_formulas():
    D = 12
    ok = True
    for l in range(1, 5):
        low, high = _geom(l, l, D), _geom(2 * l, l, D)
        ok &= k_limit("sp", (2 * l,), (), D) == low
        ok &= k_limit("so", (1,) * (2 * l), (), D) == low
        ok &= k_limit("sp", (1,) * (2 * l), (), D) == high
        ok &= k_limit("so", (2 * l,), (), D) == high
    _report(1, ok)
    assert ok


def test_criterion_02_stable_duality():
    D = 10
    ok = all(
        k_limit("so", lam, (), D) == k_limit("sp", conjugate(lam), (), D)
        for lam in enumerate_partitions(8)
    )
    _report(2, ok)
    assert ok


def _criterion3_cases():
    for nu in enumerate_partitions(5):
        for mu in enumerate_partitions(weight(nu)):
            if not dominates(nu, mu):
                continue
            for kind in "BCD":
                for n in range(max(2, len(nu), len(mu)), 5):
                    yield RootSystem(kind, n), nu, mu


def test_criterion_03_recurrence_vs_direct():
    ok = True
    for rs, nu, mu in _criterion3_cases():
        if k_recurrence_finite(rs, nu, mu) != k_direct(rs, nu, mu):
            ok = False
            print(f"mismatch: {rs.algebra} nu={nu} mu={mu}")
    _report(3, ok)
    assert ok


def test_criterion_04_stabilization():
    ok = True
    for nu in enumerate_partitions(4):
        for mu in enumerate_partitions(weight(nu)):
            if not dominates(nu, mu):
                continue
            a = len(mu)
            for k in range(3):
                lo, hi = 2 * k + a, min(2 * k + a + 2, 5)
                ranks = [
                    n for n in range(lo, hi + 1) if n >= max(2, len(nu), len(mu))
                ]
                if len(ranks) < 2:
                    continue
                vals = {
                    k_direct(RootSystem(kind, n), nu, mu)[k]
                    for n in ranks
                    for kind in "BD"
                }
                if len(vals) != 1:
                    ok = False
                    print(f"unstable: nu={nu} mu={mu} k={k} -> {sorted(vals)}")
    _report(4, ok)
    assert ok


def test_criterion_05_harmonic_two_paths():
    ok = True
    for kind in "BCD":
        for rank in (2, 3):
            rs = RootSystem(kind, rank)
            for k in range(4):
                h = harmonic_char_finite(rs, k)
                for lam in enumerate_partitions(2 * k):
                    if len(lam) > rank:
                        continue
                    if h.coeff(lam)[k] != k_direct(rs, lam, ())[k]:
                        ok = False
                        print(f"harmonic mismatch: {rs.algebra} k={k} lam={lam}")
    _report(5, ok)
    assert ok


def test_criterion_06_degree_two_example():
    sp, so = RootSystem("C", 4), RootSystem("B", 4)
    sp_list = {(4,), (2, 2), (1, 1), ()}
    so_list = {(1, 1, 1, 1), (2, 2), (2,), ()}
    ok = True
    for lam in enumerate_partitions(4):
        ok &= sym_mult_finite(sp, 2, lam) == (1 if lam in sp_list else 0)
        ok &= sym_mult_finite(so, 2, lam) == (1 if lam in so_list else 0)
    _report(6, ok)
    assert ok


def test_criterion_07_degree_window():
    ok = True
    for rs, nu, mu in _criterion3_cases():
        series = k_direct(rs, nu, mu)
        if series.is_zero():
            continue
        lo, hi = degree_bounds(rs, nu, mu)
        if series.low_degree() < lo or series.degree() != hi or series[hi] != 1:
            ok = False
            print(f"window violation: {rs.algebra} nu={nu} mu={mu}")
    _report(7, ok)
    assert ok


def test_criterion_08_stable_sym_duality_and_support():
    # the library reads sp from so at the conjugate, so the sp side of the
    # duality is the direct sp Littlewood sum of the test reference
    ok = True
    for k in range(4):
        for lam in enumerate_partitions(6):
            if sym_mult_direct("sp", k, lam) != sym_mult_stable(
                "so", k, conjugate(lam)
            ):
                ok = False
            if weight(lam) > 2 * k and sym_mult_stable("sp", k, lam) != 0:
                ok = False
    _report(8, ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="all independent computations give q^n here, not q^(n-1)",
)
def test_criterion_09_vector_rep_odd_orthogonal():
    ok = all(
        k_direct(RootSystem("B", n), (1,), ()).coeffs == {n - 1: 1}
        for n in range(2, 6)
    )
    _report(9, ok)
    assert ok


def test_criterion_09_companion_observed_value():
    # what the three independent methods actually agree on
    ok = True
    for n in range(2, 6):
        rs = RootSystem("B", n)
        series = k_direct(rs, (1,), ())
        ok &= series.coeffs == {n: 1}
        ok &= degree_bounds(rs, (1,), ()) == (1, n)
    print(f"\n[criterion 09] observed K((1),0) = q^n for so(2n+1): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_10_hall_littlewood_inversion():
    bound, D = 8, 3
    ok = True
    for family in ("so", "sp"):
        km = k_matrix(family, bound, D)
        pm = p_basis_matrix(family, bound, D)
        for prod in (pm.matmul(km), km.matmul(pm)):
            for lam in km.index:
                if weight(lam) + 2 * D > bound:
                    continue
                for mu in km.index:
                    want = {0: 1} if lam == mu else {}
                    if prod.entry(lam, mu).coeffs != want:
                        ok = False
                        print(f"inversion failure: {family} {lam} {mu}")
    _report(10, ok)
    assert ok
