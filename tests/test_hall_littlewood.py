"""Truncated K-matrix, its inverse, and Q'-expansions."""

import pytest

from qweyl.hall_littlewood import k_matrix, p_basis_matrix, qprime_expansion
from qweyl.partitions import conjugate, dominates, enumerate_partitions, weight
from qweyl.qseries import QSeries
from qweyl.recurrence import k_limit


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
@pytest.mark.parametrize("bound, D", [(10, 4), (8, 6)])
def test_weight_sorted_scan_matches_all_pairs(family, bound, D):
    # stopping the inner scan at the first |mu| > |lam| loses no entry
    # and keeps the key order
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


def test_matmul_index_mismatch():
    with pytest.raises(ValueError):
        k_matrix("so", 4, 2).matmul(k_matrix("so", 2, 2))


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
@pytest.mark.parametrize("bound, D", [(0, 0), (1, 2), (6, 3), (8, 0), (8, 6), (10, 4), (12, 3)])
def test_pruned_inverse_matches_dense_back_substitution(family, bound, D):
    # the pruned solve skips only entries that are provably zero, and
    # inserts the others in the same order
    pm = p_basis_matrix(family, bound, D)
    dense = _dense_back_substitution(k_matrix(family, bound, D))
    assert list(pm.entries.items()) == list(dense.items())
