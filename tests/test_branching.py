"""Branching multiplicities, symmetric-power characters, harmonics.

Cross-checks: stable multiplicities against finite-rank decompositions in
the stable range, finite decompositions against a dimension count, and
harmonic graded multiplicities against the alternating-sum q-analogue.
"""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qweyl.branching import (
    CharExpansion,
    _sym_decomposition,
    _sym_decomposition_by_weights,
    _sym_mult,
    branching,
    euler_factor_coeffs,
    harmonic_char_finite,
    harmonic_coeff_stable,
    phi,
    specialise,
    sym_char_stable,
    sym_decomposition_finite,
    sym_mult_finite,
    sym_mult_stable,
)
from qweyl.hall_littlewood import k_matrix, p_basis_matrix, qprime_expansion
from qweyl.lr import lr_coefficient
from qweyl.partitions import _partitions_in_class, conjugate, enumerate_partitions, weight
from qweyl.pieri import _pieri_support, pieri_expand, stable_pieri
from qweyl.qkostant import _table, k_direct
from qweyl.qseries import QSeries
from qweyl.recurrence import _k_finite, brylinski_dims, degree_bounds, k_limit, k_recurrence_finite
from qweyl.rootsystems import RootSystem, degrees, weyl_dim


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
    # against the weight-system oracle: the finite engine specialises the
    # stable multiplicities, which is the identity inside the stable range
    for k in (0, 1, 2):
        for rs in (RootSystem("B", 4), RootSystem("C", 4), RootSystem("D", 5)):
            oracle = _sym_decomposition_by_weights(rs, k)
            for lam in enumerate_partitions(2 * k):
                assert oracle.get(lam, 0) == sym_mult_stable(
                    rs.family, k, lam
                ), (rs.algebra, k, lam)


def _dim_g(rs):
    n = rs.rank
    return n * (2 * n - 1) if rs.kind == "D" else n * (2 * n + 1)


def test_finite_decomposition_dimension_audit():
    for kind in "BCD":
        for n in range(2, 11):
            rs = RootSystem(kind, n)
            for k in range(5):
                dec = sym_decomposition_finite(rs, k)
                total = 0
                for key, m in dec.items():
                    lam = key[:-1] + (abs(key[-1]),) if key else key
                    lam = tuple(x for x in lam if x)
                    total += m * weyl_dim(rs, lam)
                assert total == comb(_dim_g(rs) + k - 1, k), (rs.algebra, k)


def test_specialise_hand_cases():
    B2, C2, D2 = RootSystem("B", 2), RootSystem("C", 2), RootSystem("D", 2)
    assert specialise({(1, 1, 1): 1}, C2) == {}
    assert specialise({(1, 1, 1, 1): 1}, C2) == {(1, 1): -1}
    assert specialise({(1, 1, 1): 1}, B2) == {(1, 1): 1}
    assert specialise({(1, 1, 1): 1}, D2) == {(1,): 1}
    assert specialise({(1,) * 5: 1}, B2) == {(): 1}
    assert specialise({(1, 1): 1}, D2) == {(1, 1): 1, (1, -1): 1}
    assert specialise({(2, 2, 2): 1}, D2) == {(2, 2): -1, (2, -2): -1}
    # coefficients scale and cancel; shapes inside the rank pass through
    assert specialise({(1, 1, 1): 2, (1, 1): -2, (2,): 3}, B2) == {(2,): 3}


# (kind, rank, degrees k); degree 4 at rank 5 is a cell of its own, next
# to the k <= 3 cell
_SPECIALISE_GRID = (
    [(kind, n, range(5)) for kind in "BCD" for n in (2, 3, 4)]
    + [(kind, 5, range(4)) for kind in "BCD"]
    + [(kind, 5, range(4, 5)) for kind in "BCD"]
    + [(kind, 6, range(4)) for kind in "BCD"]
)


@pytest.mark.parametrize(
    "kind, n, ks",
    [pytest.param(kind, n, ks, id=f"{kind}-{n}-{ks[-1]}") for kind, n, ks in _SPECIALISE_GRID],
)
def test_specialise_matches_weight_system(kind, n, ks):
    # the stable S^k(g) multiplicities reach length 2k, far past the rank,
    # so most shapes take several strip removals
    rs = RootSystem(kind, n)
    for k in ks:
        assert sym_decomposition_finite(rs, k) == _sym_decomposition_by_weights(rs, k), (rs, k)


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in "BCD" for n in (2, 3, 4)])
def test_harmonic_finite_matches_weight_system(kind, n):
    # the Euler factor of the degrees times S(g), decomposed by the oracle
    rs = RootSystem(kind, n)
    for k in range(5):
        want: dict = {}
        for j, c in euler_factor_coeffs(degrees(rs), k).items():
            for lam, m in _sym_decomposition_by_weights(rs, k - j).items():
                if not (lam and lam[-1] < 0):  # type D mirror keys are dropped
                    want[lam] = want.get(lam, 0) + c * m
        got = harmonic_char_finite(rs, k).terms
        assert got == {lam: QSeries.monomial(k, m) for lam, m in want.items() if m}, (rs, k)


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


def test_harmonic_stable_matches_finite_in_stable_range():
    # B and C at rank 2k+1, D at rank 2k+2 (rank >= 2), every |lam| <= 2k
    for k in range(4):
        for kind, rank in (("B", 2 * k + 1), ("C", 2 * k + 1), ("D", 2 * k + 2)):
            rs = RootSystem(kind, max(rank, 2))
            finite = harmonic_char_finite(rs, k)
            for lam in enumerate_partitions(2 * k):
                assert harmonic_coeff_stable(rs.family, k, lam) == finite.coeff(lam)[k], (
                    rs.algebra, k, lam)


def test_unknown_family_is_rejected_before_the_memo():
    before = _sym_mult.cache_info().currsize
    for call in (
        lambda: sym_mult_stable("xx", 2, (2,)),
        lambda: harmonic_coeff_stable("xx", 2, (2,)),
        lambda: sym_char_stable("xx", 2),
        lambda: branching("xx", (2,), ()),
    ):
        with pytest.raises(ValueError, match="unknown family 'xx'"):
            call()
    for call in (
        lambda: sym_mult_stable("so", 1.5, (2,)),
        lambda: harmonic_coeff_stable("so", 1.5, (2,)),
        lambda: sym_char_stable("sp", 0.5),
    ):
        with pytest.raises(ValueError, match="k must be an integer"):
            call()
    assert _sym_mult.cache_info().currsize == before


def _is_partition(parts) -> bool:
    p = list(parts)
    while p and p[-1] == 0:
        p.pop()
    return all(x > 0 for x in p) and all(a >= b for a, b in zip(p, p[1:]))


# increasing, negative or non-integral parts (trailing zeros are allowed)
_bad_shapes = st.one_of(
    st.lists(st.integers(-3, 4), min_size=1, max_size=4).filter(
        lambda p: not _is_partition(p)
    ),
    st.tuples(
        st.lists(st.integers(0, 4), max_size=3), st.sampled_from([0.5, 1.5, -2.5])
    ).flatmap(
        lambda pf: st.integers(0, len(pf[0])).map(lambda i: pf[0][:i] + [pf[1]] + pf[0][i:])
    ),
)
_bad_families = st.text(max_size=3).filter(lambda f: f not in ("so", "sp"))
_bad_degrees = st.one_of(st.integers(max_value=-1), st.sampled_from([0.5, 1.5, 2.0, -2.5]))


@settings(max_examples=60, deadline=None)
@given(_bad_shapes, _bad_families, _bad_degrees)
def test_invalid_shapes_raise_value_error(bad, family, k):
    calls = [
        lambda: branching("so", bad, ()),
        lambda: branching("sp", (2,), bad),
        lambda: branching(family, (2,), ()),
        lambda: lr_coefficient(bad, (1,), (2, 1)),
        lambda: lr_coefficient((1,), bad, (2, 1)),
        lambda: lr_coefficient((1,), (1,), bad),
        lambda: sym_mult_stable("so", 2, bad),
        lambda: sym_mult_stable(family, 2, (2,)),
        lambda: sym_mult_stable("sp", k, (2,)),
        lambda: sym_char_stable(family, 1),
        lambda: sym_char_stable("so", k),
        lambda: harmonic_coeff_stable("so", k, (2,)),
        lambda: harmonic_coeff_stable("sp", 2, bad),
        lambda: harmonic_coeff_stable(family, 2, (2,)),
        lambda: k_limit("so", bad, (), 2),
        lambda: k_limit("sp", (2,), bad, 2),
        lambda: k_limit(family, (2,), (), 2),
        lambda: k_matrix(family, 2, 1),
        lambda: k_matrix("so", -1, 1),
        lambda: k_matrix("sp", 2, -1),
        lambda: p_basis_matrix(family, 2, 1),
        lambda: p_basis_matrix("so", 2, -1),
        lambda: k_limit("so", (2,), (), k),
        lambda: k_matrix("so", 2, k),
        lambda: k_matrix("so", k, 1),
        lambda: p_basis_matrix("so", 2, k),
        lambda: qprime_expansion("so", (1,), k),
        lambda: stable_pieri((1,), k, (2,)),
        lambda: stable_pieri((1,), 1, bad),
        lambda: pieri_expand((1,), k),
        lambda: pieri_expand(bad, 1),
    ]
    pieri_before = _pieri_support.cache_info()
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # a rejected row length never reaches the Pieri memo
    assert _pieri_support.cache_info() == pieri_before
    # a rejected exact weight never reaches the partition memo
    partitions_before = _partitions_in_class.cache_info()
    with pytest.raises(ValueError):
        enumerate_partitions(4, "all", k)
    assert _partitions_in_class.cache_info() == partitions_before


# a shape too long for D5 is rejected for its length, a shorter one cannot
# be a type-D mirror weight, so every draw is invalid for every system
_systems = st.sampled_from([RootSystem("B", 2), RootSystem("C", 3), RootSystem("D", 5)])
_bad_ranks = st.one_of(st.integers(max_value=1), st.sampled_from([2.5, 3.0, -1.5]))


@settings(max_examples=60, deadline=None)
@given(_systems, _bad_shapes, _bad_degrees, _bad_ranks)
def test_invalid_finite_inputs_raise_value_error(rs, bad, k, rank):
    tables = (_table, _k_finite, _sym_decomposition)
    before = [t.cache_info() for t in tables]
    calls = [
        lambda: k_direct(rs, bad, ()),
        lambda: k_direct(rs, (2,), bad),
        lambda: k_recurrence_finite(rs, bad, ()),
        lambda: k_recurrence_finite(rs, (2,), bad),
        lambda: degree_bounds(rs, bad, ()),
        lambda: degree_bounds(rs, (1,), bad),
        lambda: brylinski_dims(rs, bad, (), 1),
        # brylinski_dims accepts k = -1 (the empty filtration step)
        lambda: brylinski_dims(rs, (2,), (), k - 1 if isinstance(k, int) else k),
        lambda: sym_mult_finite(rs, 1, bad),
        lambda: sym_mult_finite(rs, k, (1,)),
        lambda: harmonic_char_finite(rs, k),
        lambda: sym_decomposition_finite(rs, k),
        lambda: weyl_dim(rs, bad),
        lambda: RootSystem("B", rank),
        lambda: RootSystem("D", rank),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert [t.cache_info() for t in tables] == before


def test_editing_a_decomposition_leaves_the_memo_intact():
    rs = RootSystem("B", 3)
    want = sym_decomposition_finite(rs, 1)
    harmonic = harmonic_char_finite(rs, 1).terms
    assert want and harmonic
    sym_decomposition_finite(rs, 1).clear()
    assert sym_decomposition_finite(rs, 1) == want
    assert harmonic_char_finite(rs, 1).terms == harmonic


def _branching_unpruned(family, nu, lam):
    """branching as the full Littlewood sum over every gamma of the class."""
    diff = weight(nu) - weight(lam)
    if diff < 0 or diff % 2:
        return 0
    cls = "even_rows" if family == "so" else "even_columns"
    return sum(
        lr_coefficient(lam, gamma, nu)
        for gamma in enumerate_partitions(diff, cls, exact_weight=diff)
    )


def test_containment_pruning_matches_unpruned_sums():
    """branching skips lam and gamma outside nu, _sym_mult skips nu not
    containing lam; both against the sums over every gamma and every nu."""
    nonzero = 0
    for family in ("so", "sp"):
        for nu in enumerate_partitions(10):
            for lam in enumerate_partitions(weight(nu)):
                want = _branching_unpruned(family, nu, lam)
                assert branching(family, nu, lam) == want, (family, nu, lam)
                nonzero += want != 0
        nu_cls = "even_columns" if family == "so" else "even_rows"
        for k in range(6):
            for lam in enumerate_partitions(2 * k):
                want = sum(
                    _branching_unpruned(family, nu, lam)
                    for nu in enumerate_partitions(2 * k, nu_cls, exact_weight=2 * k)
                )
                assert sym_mult_stable(family, k, lam) == want, (family, k, lam)
    assert nonzero > 1000


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


def test_char_expansion_coeff_normalises_its_shape():
    ch = sym_char_stable("so", 1)
    assert ch.terms == {(1, 1): QSeries.monomial(1)}
    assert ch.coeff((1, 1, 0)) == ch.coeff([1, 1]) == ch.coeff((1, 1)) == QSeries.monomial(1)
    assert ch.coeff((2,)) == QSeries.zero()
    for bad in ((1, 2), (1, -1), (1.5,)):
        with pytest.raises(ValueError):
            ch.coeff(bad)
