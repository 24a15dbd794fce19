import pytest
from hypothesis import example, given, strategies as st

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


def test_scale_rejects_a_non_integral_factor():
    s = QSeries({0: 1, 1: 2})
    for k in (1.5, 2.0, -0.5, "2", None):
        with pytest.raises(ValueError, match="scale factor must be an integer"):
            s.scale(k)


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


def test_truncation_bound_is_an_integer_at_least_zero():
    for bad in (1.5, -1, 2.0, "3"):
        with pytest.raises(ValueError, match="truncation bound"):
            QSeries({0: 1, 1: 2}, bad)
    with pytest.raises(ValueError):
        QSeries.one().truncated(1.5)
    with pytest.raises(ValueError):
        QSeries.one().div_one_minus_qm(1, 1.5)
    # a bool is an int, as partitions.check_bound has it
    assert QSeries({0: 1, 1: 2, 2: 3}, True) == QSeries({0: 1, 1: 2}, 1)


# Reference operators: the dict loops each QSeries operator ran before all
# of them became one QSeries.combination call.


def _ref_min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _ref_add(a, b):
    cc = dict(a.coeffs)
    for d, c in b.coeffs.items():
        cc[d] = cc.get(d, 0) + c
    return QSeries(cc, _ref_min_trunc(a.trunc, b.trunc))


def _ref_neg(a):
    return QSeries({d: -c for d, c in a.coeffs.items()}, a.trunc)


def _ref_sub(a, b):
    return _ref_add(a, _ref_neg(b))


def _ref_mul(a, b):
    t = _ref_min_trunc(a.trunc, b.trunc)
    cc = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            d = d1 + d2
            if t is not None and d > t:
                continue
            cc[d] = cc.get(d, 0) + c1 * c2
    return QSeries(cc, t)


def _ref_scale(a, k):
    return QSeries({d: k * c for d, c in a.coeffs.items()}, a.trunc)


def _ref_shift(a, k):
    return QSeries({d + k: c for d, c in a.coeffs.items()}, a.trunc)


def _ref_truncated(a, trunc):
    return QSeries(a.coeffs, _ref_min_trunc(a.trunc, trunc))


def _ref_div_one_minus_qm(a, m, trunc):
    if m == 0:
        raise ZeroDivisionError("division by 1 - q^0 = 0")
    if m < 0:
        raise ValueError("m must be >= 1")
    t = _ref_min_trunc(a.trunc, trunc)
    if t is None:
        raise ValueError("division by 1 - q^m needs a truncation bound")
    cc = {}
    for d, c in a.coeffs.items():
        e = d
        while e <= t:
            cc[e] = cc.get(e, 0) + c
            e += m
    return QSeries(cc, t)


def _outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


operands = st.builds(QSeries.zero, truncs) | truncated_series
bound_args = st.none() | st.integers(-2, 12)


@given(operands, operands, st.integers(-3, 4), st.integers(-1, 4), bound_args)
@example(QSeries.zero(), QSeries.one(3), 1, 1, None)  # zero(None) * one(3) has bound 3
def test_operators_match_reference_loops(a, b, k, m, trunc):
    # full ==: the bound must agree as well as the coefficients
    pairs = [
        (lambda: a + b, lambda: _ref_add(a, b)),
        (lambda: a - b, lambda: _ref_sub(a, b)),
        (lambda: -a, lambda: _ref_neg(a)),
        (lambda: a * b, lambda: _ref_mul(a, b)),
        (lambda: b * a, lambda: _ref_mul(b, a)),
        (lambda: a.scale(k), lambda: _ref_scale(a, k)),
        (lambda: a.shift(k), lambda: _ref_shift(a, k)),
        (lambda: a.truncated(trunc), lambda: _ref_truncated(a, trunc)),
        (lambda: a.div_one_minus_qm(m, trunc), lambda: _ref_div_one_minus_qm(a, m, trunc)),
    ]
    for op, ref in pairs:
        got, want = _outcome(op), _outcome(ref)
        assert got == want and type(got) is type(want), (got, want)
