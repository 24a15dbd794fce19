import random

import pytest
from hypothesis import example, given, strategies as st

from qweyl.qseries import QSeries, _low_slots, _pack, _unpack_signed

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


def test_constructor_is_one_combination():
    # duplicate pairs sum and may cancel, degrees above the bound drop, and
    # a zero below q^0 is no term, as in any other combination
    assert QSeries([(2, 1), (0, 3), (2, 4), (0, -3)]) == QSeries({2: 5})
    assert QSeries([(1, 2), (1, -2)]) == QSeries.zero()
    assert QSeries({0: 1, 3: 2, 4: 5}, 3).coeffs == {0: 1, 3: 2}
    assert QSeries({-1: 0}) == QSeries.zero()
    with pytest.raises(ValueError, match="negative degree"):
        QSeries([(-1, 1), (-1, 0)], 5)


def test_non_integral_degree_or_coefficient_rejected():
    # the arithmetic is exact: a float degree or coefficient never gets in,
    # through the constructor or through a combination
    for make in (
        lambda: QSeries({0: 0.5}),
        lambda: QSeries({1.5: 1}),
        lambda: QSeries.combination([(0.5, 0, QSeries.one())]),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            make()


def test_bool_degree_coefficient_factor_shift_or_multiplier_rejected():
    # a bool is an int to Python, but no degree, coefficient, factor,
    # shift or multiplier of a series, as it is no bound either
    one = QSeries.one(3)
    for make in (
        lambda: QSeries({True: 2}),
        lambda: QSeries({0: True}),
        lambda: QSeries([(0, False)]),
        lambda: QSeries.monomial(1, True),
        lambda: QSeries.combination([(True, 0, one)]),
        lambda: QSeries.combination([(1, True, one)]),
        lambda: one.shift(True),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            make()
    for bad in (True, False):
        with pytest.raises(ValueError, match="scale factor must be an integer"):
            one.scale(bad)
        with pytest.raises(ValueError, match="m must be an integer"):
            one.div_one_minus_qm(bad)
    with pytest.raises(ValueError, match="m must be an integer"):
        one.div_one_minus_qm(1.0)
    # nor is a bool equal to a series, though the int 1 is
    assert QSeries.one() != True  # noqa: E712
    assert QSeries.one() == 1


def test_series_are_unhashable():
    # equal to the int 1 yet mutable through coeffs: no hash can keep the
    # hash/eq contract, so a series is never a dict key or a set member
    assert QSeries.one() == 1
    with pytest.raises(TypeError):
        hash(QSeries.one())


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


def test_combination_rejects_only_a_coefficient_below_degree_zero():
    # a term may shift below q^0 as long as nothing nonzero lands there
    assert QSeries.combination([(1, -1, QSeries.zero(3))], 2) == QSeries.zero(2)
    assert QSeries.combination([(0, -2, QSeries.one())]) == QSeries.zero()
    assert QSeries.combination([(1, -1, QSeries({1: 2, 2: 1}))]) == QSeries({0: 2, 1: 1})
    for terms in ([(1, -1, QSeries.one())], [(1, 0, QSeries.one()), (2, -3, QSeries({2: 1}))]):
        with pytest.raises(ValueError, match="negative degree"):
            QSeries.combination(terms)
    with pytest.raises(ValueError, match="must be integers"):
        QSeries.combination([(1, 0.5, QSeries.one())])


def test_truncation_bound_is_an_integer_at_least_zero():
    for bad in (1.5, -1, 2.0, "3"):
        with pytest.raises(ValueError, match="truncation bound"):
            QSeries({0: 1, 1: 2}, bad)
    with pytest.raises(ValueError):
        QSeries.one().truncated(1.5)
    with pytest.raises(ValueError):
        QSeries.one().div_one_minus_qm(1, 1.5)
    # a bool is an int to Python, but no bound, as partitions.check_bound has it
    for bad in (True, False):
        with pytest.raises(ValueError, match="truncation bound"):
            QSeries({0: 1, 1: 2, 2: 3}, bad)
        with pytest.raises(ValueError, match="truncation bound"):
            QSeries.combination([(1, 0, QSeries.one())], bad)


@given(st.integers(2, 70), st.data())
def test_balanced_packing_round_trips(width, data):
    # every coefficient with |c| < 2^(width-1), of either sign, is read
    # back from its slot, also after a cut that drops arbitrary higher slots
    half = 1 << (width - 1)
    coeffs = data.draw(st.lists(st.integers(1 - half, half - 1), max_size=8))
    pairs = [(d, c) for d, c in enumerate(coeffs) if c]
    packed = _pack(pairs, width)
    assert list(_unpack_signed(packed, width).items()) == pairs
    slots = data.draw(st.integers(1, 9))
    above = data.draw(st.integers(-(1 << 300), 1 << 300)) << (slots * width)
    assert list(_unpack_signed(_low_slots(packed + above, width, slots), width).items()) == [
        (d, c) for d, c in pairs if d < slots]


def _signed_cases(width, rng):
    """Coefficient lists for slots of `width` bits: the edges 2^(width-1) - 1
    and -2^(width-1) of a slot, runs of zero slots, a negative top slot,
    and random coefficients of both signs.  The first cases pack to
    positive integers, so that a reader that loses the sign fails on
    them before it meets a negative one."""
    half = 1 << (width - 1)
    edges = [half - 1, 1 - half, -half, 1, -1]
    cases = [[-1, 1], [-half, 0, 1]] + [[e] for e in edges] + [
        [half - 1, 0, 0, -half],
        [-half, 0, half - 1, 0, 0, 1 - half],
        [0, 0, -1],
        [-1, 0, 0, 0, half - 1],
        [0, -half, 0, 1],
    ]
    for _ in range(40):
        cases.append([rng.choice(edges + [0, 0, rng.randint(-half, half - 1)])
                      for _ in range(rng.randint(1, 9))])
    return cases


def test_unpack_signed_round_trips_every_edge():
    # every coefficient in [-2^(width-1), 2^(width-1)), the balanced digits
    # of a slot, is read back in slot order, zero slots are skipped, and a
    # negative top slot leaves a negative packed integer that the reader
    # still ends on
    rng = random.Random(7)
    for width in (2, 3, 8, 63, 64, 65, 128):
        for coeffs in _signed_cases(width, rng):
            pairs = [(d, c) for d, c in enumerate(coeffs) if c]
            got = _unpack_signed(_pack(pairs, width), width)
            assert list(got.items()) == pairs, (width, coeffs)


def _reader_without_carry(packed, width):
    """_unpack_signed with its carry left out: a negative slot's borrow is
    not returned to the slots above.  Reads at most 64 slots, since
    without the carry a negative packed integer never reaches 0."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = {}
    for k in range(64):
        if not packed:
            break
        c = packed & mask
        packed >>= width
        if c:
            out[k] = c - (1 << width) if c >= half else c
    return out


def test_the_round_trip_catches_a_reader_without_the_carry():
    # the mutant agrees on nonnegative slots, so only the negative ones
    # in the edge cases can tell it apart; it misreads some of them
    rng = random.Random(7)
    wrong = 0
    for width in (2, 8, 64):
        for coeffs in _signed_cases(width, rng):
            want = {d: c for d, c in enumerate(coeffs) if c}
            packed = _pack(want.items(), width)
            assert _unpack_signed(packed, width) == want
            if all(c >= 0 for c in coeffs):
                assert _reader_without_carry(packed, width) == want
            wrong += _reader_without_carry(packed, width) != want
    assert wrong > 20
    # the smallest case: -1 then 1 packs to 2^width - 1, which the mutant
    # reads as one slot of -1
    assert _reader_without_carry(_pack([(0, -1), (1, 1)], 8), 8) == {0: -1}
    assert _unpack_signed(_pack([(0, -1), (1, 1)], 8), 8) == {0: -1, 1: 1}


def test_balanced_packing_bound_is_tight():
    # a coefficient of 2^(width-1) no longer fits its slot
    for width in (2, 8, 64):
        half = 1 << (width - 1)
        assert _unpack_signed(_pack([(0, half - 1), (1, 1 - half)], width), width) == {
            0: half - 1, 1: 1 - half}
        assert _unpack_signed(_pack([(0, half)], width), width) != {0: half}


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
