"""Branching multiplicities, symmetric-power characters, harmonics.

Cross-checks: stable multiplicities against finite-rank decompositions in
the stable range, finite decompositions against a dimension count, and
harmonic graded multiplicities against the alternating-sum q-analogue.
"""

import importlib
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qweyl.branching import (
    CharExpansion,
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
from qweyl.lr import lr_cache, lr_coefficient
from qweyl.partitions import _partitions_in_class, conjugate, enumerate_partitions, weight
from qweyl.pieri import _pieri_support, pieri_expand, stable_pieri
from qweyl.qkostant import _table, k_direct
from qweyl.qseries import QSeries
from qweyl.recurrence import _k_finite, brylinski_dims, degree_bounds, k_limit, k_recurrence_finite
from qweyl.rootsystems import RootSystem, degrees, diagram_flip, positive_roots, weyl_dim
from littlewood_reference import harmonic_coeff_direct, sym_mult_direct
from weyl_reference import dominant_dot


def _sym_decomposition_by_weights(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """Oracle for sym_decomposition_finite: S^k(g) decomposed from its
    weight system (doubled coordinates), with no stable multiplicity."""
    n = rs.rank
    zero = (0,) * n
    # degree -> weight -> multiplicity, from the root vectors only
    layers: list[dict[tuple[int, ...], int]] = [{zero: 1}] + [{} for _ in range(k)]
    all_roots = []
    for r in positive_roots(rs):
        all_roots.append(r)
        all_roots.append(tuple(-c for c in r))
    for alpha in all_roots:
        for d in range(k, 0, -1):
            for j in range(1, d + 1):
                shift = tuple(j * c for c in alpha)
                for w, m in layers[d - j].items():
                    key = tuple(a + b for a, b in zip(w, shift))
                    layers[d][key] = layers[d].get(key, 0) + m
    # Cartan part: n commuting weight-zero generators, C(n + j - 1, j) in degree j
    weights: dict[tuple[int, ...], int] = {}
    for j in range(k + 1):
        c = comb(n + j - 1, j)
        for w, m in layers[k - j].items():
            weights[w] = weights.get(w, 0) + c * m
    # Brauer-Klimyk with V(0): each weight wt of multiplicity m adds
    # sign(w) m V(w o wt); weights with wt + rho on a wall add nothing
    out: dict[tuple[int, ...], int] = {}
    for wt, m in weights.items():
        sign, lam = dominant_dot(rs, wt)
        if sign:
            out[lam] = out.get(lam, 0) + sign * m
    return {lam: c for lam, c in out.items() if c}


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
    for nu in enumerate_partitions(8):
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


# the stable S^k(g) cells of the duality checks: k <= 8, |lam| <= 2k + 2
_SYM_GRID = [(k, lam) for k in range(9) for lam in enumerate_partitions(2 * k + 2)]


def _sp_mismatches():
    """The grid cells where sym_mult_stable("sp") differs from the direct
    sp Littlewood sum of the test reference."""
    return [(k, lam) for k, lam in _SYM_GRID
            if sym_mult_stable("sp", k, lam) != sym_mult_direct("sp", k, lam)]


def test_stable_sym_duality():
    """sp multiplicities, read from so at the conjugate partition, equal
    the direct sp sum over even-row nu on every cell of the grid."""
    assert not _sp_mismatches()
    assert sum(sym_mult_direct("sp", k, lam) != 0 for k, lam in _SYM_GRID) > 300


def test_stable_sym_duality_catches_a_dropped_conjugation(monkeypatch):
    """Mutation: with the conjugation dropped, sp reads so at lam itself,
    and the comparison of test_stable_sym_duality fails."""
    module = importlib.import_module("qweyl.branching")
    _sym_mult.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(module, "_conjugate", lambda lam: lam)
            mismatches = _sp_mismatches()
    finally:
        _sym_mult.cache_clear()
    assert len(mismatches) > 100
    assert not _sp_mismatches()


def test_sp_harmonics_add_no_littlewood_call_once_so_is_warm(monkeypatch):
    """harmonic_coeff_stable("sp", k, lam) reads the so multiplicities at
    lam': once those are warm it makes no branching or lr_coefficient call
    and adds no lr_cache entry, while the cold so queries reach both."""
    module = importlib.import_module("qweyl.branching")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("branching", "lr_coefficient"):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    k = 6
    shapes = enumerate_partitions(2 * k + 2)
    _sym_mult.cache_clear()
    so = {lam: harmonic_coeff_stable("so", k, conjugate(lam)) for lam in shapes}
    assert calls["branching"] and calls["lr_coefficient"], calls
    calls.clear()
    entries = len(lr_cache)
    assert {lam: harmonic_coeff_stable("sp", k, lam) for lam in shapes} == so
    assert not calls and len(lr_cache) == entries, calls


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
                for lam, m in dec.items():
                    # a type-D key stands for itself and its mirror module
                    for w in {lam, diagram_flip(kind, n, lam)}:
                        total += m * weyl_dim(rs, w)
                assert total == comb(_dim_g(rs) + k - 1, k), (rs.algebra, k)


def test_specialise_hand_cases():
    assert specialise({(1, 1, 1): 1}, "C", 2) == {}
    assert specialise({(1, 1, 1, 1): 1}, "C", 2) == {(1, 1): -1}
    assert specialise({(1, 1, 1): 1}, "B", 2) == {(1, 1): 1}
    assert specialise({(1, 1, 1): 1}, "D", 2) == {(1,): 1}
    assert specialise({(1,) * 5: 1}, "B", 2) == {(): 1}
    # a full-length type-D key stands for itself: no mirror key is added
    assert specialise({(1, 1): 1}, "D", 2) == {(1, 1): 1}
    assert specialise({(2, 2, 2): 1}, "D", 2) == {(2, 2): -1}
    # coefficients scale and cancel; shapes inside the rank pass through
    assert specialise({(1, 1, 1): 2, (1, 1): -2, (2,): 3}, "B", 2) == {(2,): 3}


def test_specialise_at_ranks_0_and_1():
    # the rules need only the type and the rank, so they reach so(3),
    # sp(2), so(2), so(1) and so(0), where no RootSystem exists
    assert specialise({(1, 1): 1}, "B", 1) == {(1,): 1}
    assert specialise({(1, 1): 1}, "D", 1) == {(): 1}
    assert specialise({(1, 1): 1}, "C", 1) == {}
    assert specialise({(1,): 1}, "D", 1) == {(1,): 1}
    assert specialise({(1,): 1}, "B", 0) == {(): 1}
    assert specialise({(1,): 1}, "D", 0) == {}
    assert specialise({(): 1}, "D", 0) == {(): 1}


def test_specialise_rejects_an_unknown_type_or_rank():
    for kind, n in (("A", 2), ("B", -1), ("C", 1.5)):
        with pytest.raises(ValueError):
            specialise({(1,): 1}, kind, n)


def test_specialise_rejects_a_non_integral_multiplicity():
    # a bool is rejected as QSeries and check_bound reject it
    for m in (1.5, 2.0, "1", True):
        with pytest.raises(ValueError):
            specialise({(2,): m}, "B", 3)


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
    # so most shapes take several strip removals.  The oracle also lists
    # the type-D mirror modules; each has the multiplicity of its flip,
    # which is the key that stands for it.
    rs = RootSystem(kind, n)
    for k in ks:
        oracle = _sym_decomposition_by_weights(rs, k)
        for lam, m in oracle.items():
            assert oracle.get(diagram_flip(kind, n, lam), 0) == m, (rs, k, lam)
        keys = {lam: m for lam, m in oracle.items() if not (lam and lam[-1] < 0)}
        assert sym_decomposition_finite(rs, k) == keys, (rs, k)


def test_sym_mult_finite_reads_every_key_mirrors_included():
    # every key of the decomposition and, for a full-length type-D key,
    # its mirror weight is a valid argument of sym_mult_finite and reads
    # the key's multiplicity back
    mirrors = 0
    for n in range(2, 7):
        rs = RootSystem("D", n)
        for k in range(5):
            for lam, m in sym_decomposition_finite(rs, k).items():
                assert sym_mult_finite(rs, k, lam) == m, (rs, k, lam)
                mirror = diagram_flip("D", n, lam)
                if mirror != lam:
                    assert mirror[-1] < 0 and sym_mult_finite(rs, k, mirror) == m, (rs, k, lam)
                    mirrors += 1
    assert mirrors
    assert sym_mult_finite(RootSystem("D", 3), 3, (2, 1, -1)) == 1


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in "BCD" for n in (2, 3, 4)])
def test_harmonic_finite_matches_weight_system(kind, n):
    # the Euler factor of the degrees times S(g), decomposed by the oracle
    rs = RootSystem(kind, n)
    for k in range(5):
        want: dict = {}
        for j, c in euler_factor_coeffs(degrees(rs), k).items():
            for lam, m in _sym_decomposition_by_weights(rs, k - j).items():
                if not (lam and lam[-1] < 0):  # a type-D mirror is read through its key
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
    for bound in (-1, True, 2.0):
        with pytest.raises(ValueError):
            euler_factor_coeffs([2], bound)


def _euler_factor_by_dicts(degs, bound):
    """prod_d (1 - q^d) up to q^bound, one {degree: coefficient} dict
    merge per degree: the loop euler_factor_coeffs ran before it built a
    QSeries."""
    cc = {0: 1}
    for d in degs:
        if d > bound:
            continue
        nxt = dict(cc)
        for e, c in cc.items():
            if e + d <= bound:
                nxt[e + d] = nxt.get(e + d, 0) - c
        cc = {e: c for e, c in nxt.items() if c}
    return cc


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=8), st.integers(0, 30))
def test_euler_factor_equals_the_dict_loop(degs, bound):
    got = euler_factor_coeffs(degs, bound)
    want = _euler_factor_by_dicts(degs, bound)
    # the same pairs in the same order
    assert list(got.items()) == list(want.items())


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
    tables = (_table, _k_finite, _sym_mult)
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
    containing lam and returns 0 at once for |lam| odd or above 2k; all
    against the sums over every gamma and every nu."""
    nonzero = 0
    for family in ("so", "sp"):
        for nu in enumerate_partitions(10):
            for lam in enumerate_partitions(weight(nu)):
                want = _branching_unpruned(family, nu, lam)
                assert branching(family, nu, lam) == want, (family, nu, lam)
                nonzero += want != 0
        nu_cls = "even_columns" if family == "so" else "even_rows"
        for k in range(9):
            # every |lam| up to 2k + 1: the odd weights and one past 2k
            for lam in enumerate_partitions(2 * k + 1):
                want = sum(
                    _branching_unpruned(family, nu, lam)
                    for nu in enumerate_partitions(2 * k, nu_cls, exact_weight=2 * k)
                )
                assert sym_mult_stable(family, k, lam) == want, (family, k, lam)
    assert nonzero > 1000


def test_harmonic_support_matches_the_euler_sum():
    """harmonic_coeff_stable returns 0 outside the support of S^k(g) at
    lam (|lam| odd or above 2k) without a sum; against the Euler sum over
    the direct S(g) multiplicities, both families, k <= 8, |lam| <= 2k + 3."""
    cells = nonzero = 0
    for family in ("so", "sp"):
        for k in range(9):
            for lam in enumerate_partitions(2 * k + 3):
                want = harmonic_coeff_direct(family, k, lam)
                assert harmonic_coeff_stable(family, k, lam) == want, (family, k, lam)
                cells += 1
                nonzero += want != 0
    assert cells > 7000 and nonzero > 500


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
    # an unsorted key is an error, not the key of its sorted conjugate
    with pytest.raises(ValueError):
        phi(CharExpansion("so", {(1, 2): QSeries.one()}))


def test_char_expansion_validation():
    with pytest.raises(ValueError):
        CharExpansion("bad", {})
    with pytest.raises(ValueError):
        CharExpansion("so", {(1, 1, 1): QSeries.one()}, rank=2)
    # zero coefficients are dropped
    assert CharExpansion("so", {(1,): QSeries.zero()}).terms == {}


def test_char_expansion_is_an_unhashable_value():
    one = QSeries.one()
    ch = CharExpansion("so", {(1,): one})
    assert ch == CharExpansion(basis="so", terms={(1,): one}, rank=None)
    assert ch != CharExpansion("sp", {(1,): one}) and ch != CharExpansion("so", {(1,): one}, rank=2)
    assert ch != CharExpansion("so", {(2,): one}) and ch != ("so", {(1,): one}, None)
    assert ch.__eq__(("so", {(1,): one}, None)) is NotImplemented
    # terms defaults to empty and rank to None; no two expansions share terms
    a, b = CharExpansion("so"), CharExpansion(basis="so")
    assert a == b == CharExpansion("so", {}) and a.terms == {} and a.rank is None
    a.terms[(1,)] = one
    assert b.terms == {} and CharExpansion("so").terms == {}
    assert repr(ch) == "CharExpansion(basis='so', terms={(1,): QSeries({0: 1})}, rank=None)"
    assert repr(CharExpansion("sp", rank=2)) == "CharExpansion(basis='sp', terms={}, rank=2)"
    with pytest.raises(TypeError):
        hash(ch)
    # the fields stay assignable
    ch.rank = 3
    assert ch.rank == 3


def test_char_expansion_normalises_and_checks_its_terms():
    one = QSeries.one()
    # a key with trailing zeros is stored, read and conjugated as its partition
    ch = CharExpansion("so", {(1, 0): one})
    assert ch.terms == {(1,): one}
    assert ch.coeff((1,)) == one and phi(ch).coeff((1,)) == one
    for terms in (
        {(1, 2): one},  # parts not weakly decreasing
        {(1,): 3},  # a coefficient that is not a series
        {(1, 0): one, (1,): one},  # two keys of one partition
    ):
        with pytest.raises(ValueError):
            CharExpansion("so", terms)


def test_char_expansion_coeff_normalises_its_shape():
    ch = sym_char_stable("so", 1)
    assert ch.terms == {(1, 1): QSeries.monomial(1)}
    assert ch.coeff((1, 1, 0)) == ch.coeff([1, 1]) == ch.coeff((1, 1)) == QSeries.monomial(1)
    assert ch.coeff((2,)) == QSeries.zero()
    for bad in ((1, 2), (1, -1), (1.5,)):
        with pytest.raises(ValueError):
            ch.coeff(bad)


def _closure_cut_mismatches():
    """The cells of _SYM_GRID, both families, where sym_mult_stable
    differs from the direct Littlewood sum of the test reference, read
    with a cold _sym_mult memo."""
    _sym_mult.cache_clear()
    try:
        return [(family, k, lam) for family in ("so", "sp") for k, lam in _SYM_GRID
                if sym_mult_stable(family, k, lam) != sym_mult_direct(family, k, lam)]
    finally:
        _sym_mult.cache_clear()


def test_even_column_closure_cut_matches_unpruned_sums():
    """_sym_mult returns 0 when 2k < |cl_so(lam)|, the weight of the least
    even-column partition containing lam (sp through the conjugate); on
    k <= 8, |lam| <= 2k + 2, both families, against the unpruned sums,
    with the cut firing on cells that the |lam| <= 2k test lets through."""
    module = importlib.import_module("qweyl.branching")
    for k, lam in _SYM_GRID:
        # each column of lam rounded up to an even length
        assert module._even_column_closure(lam) == sum(c + c % 2 for c in conjugate(lam)), lam
    assert not _closure_cut_mismatches()
    fired = sum(weight(lam) % 2 == 0 and weight(lam) <= 2 * k < module._even_column_closure(cut)
                for k, lam in _SYM_GRID for cut in (lam, conjugate(lam)))
    assert fired > 1000, fired


def test_even_column_closure_cut_catches_rows_for_columns(monkeypatch):
    """Mutation: the closure taken over the rows of lam (|lam| plus its
    odd parts) in place of its columns cuts nonzero so cells, and the
    comparison with the unpruned sums fails."""
    module = importlib.import_module("qweyl.branching")
    with monkeypatch.context() as patch:
        patch.setattr(module, "_even_column_closure", lambda lam: 2 * sum(conjugate(lam)[::2]))
        mismatches = _closure_cut_mismatches()
    assert ("so", 1, (1, 1)) in mismatches and len(mismatches) > 200, len(mismatches)
    assert not _closure_cut_mismatches()
