"""Branching multiplicities, symmetric-power characters, harmonics.

Cross-checks: stable multiplicities against finite-rank decompositions in
the stable range, finite decompositions against a dimension count, and
harmonic graded multiplicities against the alternating-sum q-analogue.
"""

from math import comb

import pytest

from qweyl.branching import (
    CharExpansion,
    branching,
    euler_factor_coeffs,
    harmonic_char_finite,
    harmonic_coeff_stable,
    phi,
    sym_char_stable,
    sym_decomposition_finite,
    sym_mult_finite,
    sym_mult_stable,
)
from qweyl.partitions import conjugate, enumerate_partitions, weight
from qweyl.qkostant import k_direct
from qweyl.qseries import QSeries
from qweyl.rootsystems import RootSystem, weyl_dim


def test_branching_small_values():
    # restriction of a gl-module to itself-shaped lowest piece
    assert branching("so", (2, 2), (2, 2)) == 1
    assert branching("sp", (2, 2), (2, 2)) == 1
    # trace / form contractions
    assert branching("so", (2,), ()) == 1
    assert branching("sp", (2,), ()) == 0
    assert branching("sp", (1, 1), ()) == 1
    assert branching("so", (2, 2), ()) == 1
    assert branching("sp", (2, 2), ()) == 1
    # parity and containment vanishing
    assert branching("so", (3,), (2,)) == 0
    assert branching("sp", (1,), (2,)) == 0


def test_symmetric_powers_of_vector_rep():
    # one-row gl-modules stay irreducible over sp but shed rows over so
    for k in range(1, 6):
        assert branching("sp", (k,), (k,)) == 1
        total_sp = sum(
            branching("sp", (k,), lam) for lam in enumerate_partitions(k)
        )
        assert total_sp == 1
        expected_so = {(k - 2 * j,) if k - 2 * j else () for j in range(k // 2 + 1)}
        for lam in enumerate_partitions(k):
            assert branching("so", (k,), lam) == (1 if lam in expected_so else 0)


def test_branching_duality():
    for nu in enumerate_partitions(6):
        for lam in enumerate_partitions(weight(nu)):
            assert branching("sp", nu, lam) == branching(
                "so", conjugate(nu), conjugate(lam)
            ), (nu, lam)


def test_stable_sym_mult_basics():
    for family in ("so", "sp"):
        assert sym_mult_stable(family, 0, ()) == 1
        assert sym_mult_stable(family, 1, ()) == 0
    # degree one is the adjoint representation
    assert sym_mult_stable("sp", 1, (2,)) == 1
    assert sym_mult_stable("sp", 1, (1, 1)) == 0
    assert sym_mult_stable("so", 1, (1, 1)) == 1
    assert sym_mult_stable("so", 1, (2,)) == 0
    # weight bound
    assert sym_mult_stable("so", 1, (3, 1)) == 0


def test_stable_sym_duality():
    for k in range(4):
        for lam in enumerate_partitions(2 * k):
            assert sym_mult_stable("sp", k, lam) == sym_mult_stable(
                "so", k, conjugate(lam)
            )


def test_stable_matches_finite_in_stable_range():
    for k in (0, 1, 2):
        for rs in (RootSystem("B", 4), RootSystem("C", 4), RootSystem("D", 5)):
            for lam in enumerate_partitions(2 * k):
                assert sym_mult_finite(rs, k, lam) == sym_mult_stable(
                    rs.family, k, lam
                ), (rs.algebra, k, lam)


def _dim_g(rs):
    n = rs.rank
    return n * (2 * n - 1) if rs.kind == "D" else n * (2 * n + 1)


def test_finite_decomposition_dimension_audit():
    for kind in "BCD":
        for n in (2, 3, 4, 5):
            rs = RootSystem(kind, n)
            for k in (0, 1, 2, 3):
                dec = sym_decomposition_finite(rs, k)
                total = 0
                for key, m in dec.items():
                    lam = key[:-1] + (abs(key[-1]),) if key else key
                    lam = tuple(x for x in lam if x)
                    total += m * weyl_dim(rs, lam)
                assert total == comb(_dim_g(rs) + k - 1, k), (rs.algebra, k)


def test_sym_char_stable_expansion():
    ch = sym_char_stable("sp", 1)
    assert ch.terms == {(2,): QSeries.monomial(1, 1)}
    assert sym_char_stable("so", 0).terms == {(): QSeries.one()}


def test_euler_factor_coeffs():
    assert euler_factor_coeffs([], 5) == {0: 1}
    assert euler_factor_coeffs([2, 4], 6) == {0: 1, 2: -1, 4: -1, 6: 1}


def test_harmonic_stable_kills_invariants():
    for family in ("so", "sp"):
        assert harmonic_coeff_stable(family, 0, ()) == 1
        for k in range(1, 5):
            assert harmonic_coeff_stable(family, k, ()) == 0, (family, k)


def test_harmonic_finite_matches_q_analogue():
    """Graded harmonic multiplicity of V(lam) equals the alternating-sum
    q-analogue at mu = 0, checked degree by degree."""
    for rs in (RootSystem("B", 2), RootSystem("C", 2), RootSystem("D", 3)):
        series = {}
        for k in range(7):
            for lam, c in harmonic_char_finite(rs, k).terms.items():
                series.setdefault(lam, {})[k] = c[k]
        for lam in enumerate_partitions(3):
            if len(lam) > rs.rank:
                continue
            expected = k_direct(rs, lam, ()).coeffs
            got = {d: c for d, c in series.get(lam, {}).items() if c}
            if max(expected, default=0) <= 6:
                assert got == expected, (rs.algebra, lam)
            else:
                assert {d: c for d, c in expected.items() if d <= 6} == got


def test_phi_involution():
    ch = sym_char_stable("so", 2)
    flipped = phi(ch)
    assert flipped.basis == "sp"
    assert phi(flipped).terms == ch.terms
    for lam, c in ch.terms.items():
        assert flipped.coeff(conjugate(lam)) == c
    with pytest.raises(ValueError):
        phi(CharExpansion("gl", {}))
    with pytest.raises(ValueError):
        phi(CharExpansion("so", {}, rank=3))


def test_char_expansion_validation():
    with pytest.raises(ValueError):
        CharExpansion("bad", {})
    with pytest.raises(ValueError):
        CharExpansion("so", {(1, 1, 1): QSeries.one()}, rank=2)
    # zero coefficients are dropped
    assert CharExpansion("so", {(1,): QSeries.zero()}).terms == {}
