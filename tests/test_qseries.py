import pytest
from hypothesis import given, strategies as st

from qweyl.qseries import QSeries

coeff_dicts = st.dictionaries(st.integers(0, 12), st.integers(-9, 9), max_size=6)
series = coeff_dicts.map(QSeries)
truncs = st.none() | st.integers(0, 12)
truncated_series = st.builds(QSeries, coeff_dicts, truncs)


def test_construction_drops_zeros():
    s = QSeries({0: 1, 3: 0, 5: 2})
    assert s.coeffs == {0: 1, 5: 2}
    assert QSeries.zero().is_zero()
    assert QSeries.one()[0] == 1


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        QSeries({-1: 1})


def test_str():
    assert str(QSeries({1: 1, 3: 1})) == "q + q^3"
    assert str(QSeries({0: 2, 2: -1})) == "2 - q^2"
    assert str(QSeries.zero()) == "0"


def test_truncation_rule():
    a = QSeries({0: 1, 4: 1}, trunc=4)
    b = QSeries({1: 1})
    assert (a + b).trunc == 4
    assert (a * b).trunc == 4
    assert (a * b).coeffs == {1: 1}  # q^5 falls off the window
    assert QSeries({7: 3}, trunc=4).is_zero()


def test_evaluation_and_degrees():
    s = QSeries({1: 1, 3: 2})
    assert s(1) == 3
    assert s(2) == 18
    assert s.degree() == 3
    assert s.low_degree() == 1
    assert QSeries.zero().degree() == -1


def test_geometric_division():
    s = QSeries({1: 1}).div_one_minus_qm(2, trunc=7)
    assert s.coeffs == {1: 1, 3: 1, 5: 1, 7: 1}
    # exact inverse: multiplying back gives q within the window
    back = s * QSeries({0: 1, 2: -1}, trunc=7)
    assert back.coeffs == {1: 1}
    with pytest.raises(ValueError):
        QSeries({0: 1}).div_one_minus_qm(2)
    with pytest.raises(ZeroDivisionError):
        QSeries({0: 1}, trunc=3).div_one_minus_qm(0)


def test_shift_scale():
    s = QSeries({0: 1, 1: 2})
    assert s.shift(3).coeffs == {3: 1, 4: 2}
    assert s.scale(-2).coeffs == {0: -2, 1: -4}


@given(series, series, series)
def test_ring_axioms(a, b, c):
    assert (a + b).coeffs == (b + a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a + (-a)).is_zero()
    assert (a * QSeries.one()).coeffs == a.coeffs


@given(series, st.integers(1, 5), st.integers(0, 10))
def test_division_inverts_multiplication(a, m, t):
    geom = a.div_one_minus_qm(m, trunc=t)
    back = geom * QSeries({0: 1, m: -1})
    assert back.coeffs == a.truncated(t).coeffs


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 4), truncated_series),
                max_size=5), truncs)
def test_combination_matches_naive_fold(terms, trunc):
    # the fold starts at zero(trunc), so the smallest bound of all wins
    naive = QSeries.zero(trunc)
    for factor, shift, s in terms:
        naive = naive + s.shift(shift).scale(factor)
    assert QSeries.combination(terms, trunc) == naive


def test_combination_of_no_terms_is_zero():
    assert QSeries.combination([], 4) == QSeries.zero(4)
    assert QSeries.combination(iter(()), None) == QSeries.zero()
