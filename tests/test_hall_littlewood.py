"""Truncated K-matrix, its inverse, and Q'-expansions."""

import pytest

from qweyl import hall_littlewood
from qweyl.hall_littlewood import TruncatedKMatrix, k_matrix, p_basis_matrix, qprime_expansion
from qweyl.partitions import conjugate, dominates, enumerate_partitions, weight
from qweyl.qseries import QSeries
from qweyl.recurrence import _k_limit, k_limit


def test_k_matrix_shape_and_triangularity():
    km = k_matrix("sp", 4, 3)
    assert km.index == enumerate_partitions(4)
    for lam in km.index:
        assert km.entry(lam, lam) == QSeries.one(3)
    for (lam, mu) in km.entries:
        assert dominates(lam, mu)
        assert (weight(lam) - weight(mu)) % 2 == 0
        if weight(lam) == weight(mu) and lam != mu:
            assert km.entry(lam, mu).low_degree() >= 1


def test_k_matrix_known_entries():
    km = k_matrix("so", 4, 4)
    assert km.entry((2,), (1, 1)).coeffs == {1: 1}
    assert km.entry((1, 1), (2,)).is_zero()
    assert km.entry((2,), ()) == k_limit("so", (2,), (), 4)


def test_inverse_identity_on_closed_rows():
    # rows lam with |lam| + 2D <= bound see their full K-support inside
    # the window, so (P . K) and (K . P) are the identity there
    bound, D = 8, 2
    for family in ("so", "sp"):
        km = k_matrix(family, bound, D)
        pm = p_basis_matrix(family, bound, D)
        for prod in (pm.matmul(km), km.matmul(pm)):
            for (lam, mu), val in prod.entries.items():
                if weight(lam) + 2 * D <= bound:
                    expect = QSeries.one(D) if lam == mu else QSeries.zero(D)
                    assert val == expect, (family, lam, mu)
        for lam in km.index:
            if weight(lam) + 2 * D <= bound:
                assert pm.matmul(km).entry(lam, lam) == QSeries.one(D)


def test_inverse_identity_on_benchmark_window():
    # the window of the benchmark's p_basis_matrix queries: bound 10, D = 4
    bound, D = 10, 4
    for family in ("so", "sp"):
        km = k_matrix(family, bound, D)
        pm = p_basis_matrix(family, bound, D)
        closed = [lam for lam in km.index if weight(lam) + 2 * D <= bound]
        assert closed
        for prod in (pm.matmul(km), km.matmul(pm)):
            for lam in closed:
                for mu in km.index:
                    expect = QSeries.one(D) if lam == mu else QSeries.zero(D)
                    assert prod.entry(lam, mu) == expect, (family, lam, mu)


def test_empty_column_duality():
    # the mu = () column of one family matches the conjugate-indexed
    # column of the other
    D = 3
    for lam in enumerate_partitions(5):
        assert k_limit("so", lam, (), D) == k_limit("sp", conjugate(lam), (), D)


def test_qprime_expansion_low_truncation():
    ex = qprime_expansion("so", (), 1)
    assert ex.basis == "so"
    assert ex.coeff(()) == QSeries.one(1)
    # only even-weight partitions can appear over mu = ()
    assert all(weight(lam) % 2 == 0 for lam in ex.terms)
    assert ex.coeff((2,))[1] == k_limit("so", (2,), (), 1)[1]


def test_qprime_support_bound():
    D = 2
    ex = qprime_expansion("sp", (1, 1), D)
    assert all(weight(lam) <= 2 + 2 * D for lam in ex.terms)
    assert ex.coeff((1, 1)) == QSeries.one(D)
    for lam, c in ex.terms.items():
        assert c.low_degree() >= (weight(lam) - 2 + 1) // 2


def test_qprime_expansion_skips_lambda_lighter_than_mu(monkeypatch):
    # K_{lambda,mu} = 0 for |lambda| < |mu| and for |lambda| - |mu| odd:
    # no top-level lookup asks for one, and the expansion is that of every
    # lambda up to |mu| + 2D
    mu, D = (3, 3, 2), 3
    keys = []

    def recorded(family, lam, mu, D):
        keys.append((lam, mu))
        return _k_limit(family, lam, mu, D)

    monkeypatch.setattr(hall_littlewood, "_k_limit", recorded)
    for family in ("so", "sp"):
        keys.clear()
        ex = qprime_expansion(family, mu, D)
        assert keys and all(weight(lam) >= weight(mu) for lam, _ in keys)
        assert {lam for lam, _ in keys} == {
            lam for lam in enumerate_partitions(weight(mu) + 2 * D)
            if weight(lam) >= weight(mu) and (weight(lam) - weight(mu)) % 2 == 0}
        assert len(keys) == 276
        assert ex.terms == {lam: s for lam in enumerate_partitions(weight(mu) + 2 * D)
                            if (s := k_limit(family, lam, mu, D))}


def test_qprime_expansion_equals_the_unstepped_loop():
    # the expansion steps |lambda| by 2 from |mu|; the loop over every
    # size from |mu| to |mu| + 2D finds the same terms, and K_{lambda,mu}
    # is 0 at every lambda the step skips
    for family in ("so", "sp"):
        for mu in ((), (1,), (2, 1), (1, 1, 1), (3, 1)):
            for D in (0, 1, 2, 4):
                unstepped = {}
                for size in range(weight(mu), weight(mu) + 2 * D + 1):
                    for lam in enumerate_partitions(size, exact_weight=size):
                        series = k_limit(family, lam, mu, D)
                        assert not (series and (size - weight(mu)) % 2), (family, lam, mu)
                        if series:
                            unstepped[lam] = series
                assert qprime_expansion(family, mu, D).terms == unstepped, (family, mu, D)


def test_truncated_k_matrix_is_an_unhashable_value():
    km = k_matrix("so", 1, 1)
    same = TruncatedKMatrix(family="so", weight_bound=1, degree=1, index=[(), (1,)],
                            entries=dict(km.entries))
    assert km == same
    for other in (
        TruncatedKMatrix("sp", 1, 1, km.index, km.entries),
        TruncatedKMatrix("so", 2, 1, km.index, km.entries),
        TruncatedKMatrix("so", 1, 2, km.index, km.entries),
        TruncatedKMatrix("so", 1, 1, [()], km.entries),
        TruncatedKMatrix("so", 1, 1, km.index, {}),
    ):
        assert km != other
    assert km != ("so", 1, 1, km.index, km.entries)
    assert km.__eq__(("so", 1, 1, km.index, km.entries)) is NotImplemented
    assert repr(km) == (
        "TruncatedKMatrix(family='so', weight_bound=1, degree=1, index=[(), (1,)], "
        "entries={((), ()): QSeries({0: 1}, trunc=1), ((1,), (1,)): QSeries({0: 1}, trunc=1)})"
    )
    with pytest.raises(TypeError):
        hash(km)
    with pytest.raises(TypeError):
        TruncatedKMatrix("so", 1, 1, [()])  # every field is required


def test_entry_normalises_list_shapes():
    km = k_matrix("so", 4, 2)
    assert km.entry([2], [1, 1]) == km.entry((2,), (1, 1)) == QSeries({1: 1}, 2)
    assert km.entry([2, 0], []) == km.entry((2,), ())
    with pytest.raises(ValueError):
        km.entry([1, 2], [])


def _k_matrix_all_pairs(family, bound, D):
    """k_matrix's entries by testing every (lam, mu) pair of the window."""
    index = enumerate_partitions(bound)
    entries = {}
    for lam in index:
        for mu in index:
            if weight(lam) < weight(mu) or (weight(lam) - weight(mu)) % 2:
                continue
            if not dominates(lam, mu):
                continue
            series = k_limit(family, lam, mu, D)
            if series:
                entries[(lam, mu)] = series
    return entries


@pytest.mark.parametrize("family", ["so", "sp"])
@pytest.mark.parametrize("bound, D", [(10, 4), (8, 6), (8, 1), (9, 2)])
def test_weight_sorted_scan_matches_all_pairs(family, bound, D):
    # scanning only |lam| - 2D <= |mu| <= |lam| loses no entry and keeps
    # the key order; with 2D < bound the lower end cuts pairs off
    km = k_matrix(family, bound, D)
    assert list(km.entries.items()) == list(_k_matrix_all_pairs(family, bound, D).items())


def _naive_product(a, b):
    """a . b over every (lam, kappa, mu) triple of the window, by QSeries * and +."""
    prod = {}
    for lam in a.index:
        for mu in a.index:
            acc = QSeries.zero(a.degree)
            for kappa in a.index:
                left, right = a.entries.get((lam, kappa)), b.entries.get((kappa, mu))
                if left is not None and right is not None:
                    acc = acc + left * right
            if acc:
                prod[(lam, mu)] = acc
    return prod


@pytest.mark.parametrize("family", ["so", "sp"])
@pytest.mark.parametrize("bound, D", [(6, 3), (7, 0), (5, 5)])
def test_matmul_matches_naive_product(family, bound, D):
    km, pm = k_matrix(family, bound, D), p_basis_matrix(family, bound, D)
    for a, b in ((km, pm), (pm, km), (km, km)):
        prod = a.matmul(b)
        assert prod.degree == D and prod.index == km.index
        assert prod.entries == _naive_product(a, b)


def test_window_builders_validate_once_then_read_the_stable_table():
    # the cells read the unchecked _k_limit, which would take an unknown
    # family for "so": the builders check the family and bounds first;
    # each cell equals the public k_limit it stands for
    for make in (lambda: k_matrix("gl", 2, 2), lambda: k_matrix("so", -1, 2),
                 lambda: k_matrix("so", 2, -1), lambda: qprime_expansion("gl", (1,), 2),
                 lambda: qprime_expansion("so", (1, 2), 2),
                 lambda: qprime_expansion("so", (1,), -1)):
        with pytest.raises(ValueError):
            make()
    for family in ("so", "sp"):
        km = k_matrix(family, 5, 3)
        for (lam, mu), series in km.entries.items():
            assert series == k_limit(family, lam, mu, 3)
        exp = qprime_expansion(family, (1, 1), 3)
        for lam, series in exp.terms.items():
            assert series == k_limit(family, lam, (1, 1), 3)


def test_matmul_index_mismatch():
    with pytest.raises(ValueError):
        k_matrix("so", 4, 2).matmul(k_matrix("so", 2, 2))


def test_matmul_family_mismatch():
    # same index, different family: no mixed product
    for a, b in (("so", "sp"), ("sp", "so")):
        with pytest.raises(ValueError, match="families"):
            k_matrix(a, 3, 2).matmul(k_matrix(b, 3, 2))


def test_matmul_degree_is_the_smaller_one():
    # the product is known only modulo q^(D+1) for the smaller D, and its
    # degree must say so, whichever factor is the coarser
    for family in ("so", "sp"):
        fine, coarse = k_matrix(family, 4, 2), k_matrix(family, 4, 1)
        for a, b in ((fine, coarse), (coarse, fine)):
            prod = a.matmul(b)
            assert prod.degree == 1
            assert all(e.trunc == 1 for e in prod.entries.values())
            assert prod.entries == _naive_product(coarse, coarse)


def _dense_back_substitution(km):
    """The unpruned inverse: every (lam, mu) pair of the window is solved."""
    D = km.degree
    rows = {}
    for (lam, kappa), val in km.entries.items():
        if lam != kappa:
            rows.setdefault(lam, []).append((kappa, val))
    inv = {}
    solve_order = sorted(km.index, key=lambda p: (weight(p), p))
    for mu in km.index:
        inv[(mu, mu)] = QSeries.one(D)
        for lam in solve_order:
            if lam == mu:
                continue
            entry = QSeries.combination(
                (
                    (-c, d, inv[(kappa, mu)])
                    for kappa, kval in rows.get(lam, ())
                    if (kappa, mu) in inv
                    for d, c in kval.coeffs.items()
                ),
                D,
            )
            if entry:
                inv[(lam, mu)] = entry
    return inv


@pytest.mark.parametrize("family", ["so", "sp"])
@pytest.mark.parametrize("bound, D",
                         [(0, 0), (1, 2), (6, 3), (8, 0), (8, 6), (10, 4), (12, 3), (10, 1), (12, 2)])
def test_pruned_inverse_matches_dense_back_substitution(family, bound, D):
    # the pruned solve skips only entries and products that are provably
    # zero, and inserts the others in the same order
    pm = p_basis_matrix(family, bound, D)
    dense = _dense_back_substitution(k_matrix(family, bound, D))
    assert list(pm.entries.items()) == list(dense.items())
