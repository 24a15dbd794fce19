import re

from hypothesis import given, settings, strategies as st

import pytest

from qweyl.partitions import (
    _box_tuples,
    _conjugate,
    add_horizontal_strips,
    check_partition,
    conjugate,
    contains,
    dominates,
    enumerate_partitions,
    integral_parts,
    is_horizontal_strip,
    padded,
    partition_sort_key,
    remove_horizontal_strips,
    weight,
)
from strip_reference import add_strips, box_tuples, remove_strips

partitions = st.lists(st.integers(1, 8), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_check_partition_normalizes_and_rejects():
    assert check_partition([3, 2, 0, 0]) == (3, 2)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))


def test_check_partition_rejects_interior_zero():
    assert check_partition((2, 1, 0)) == (2, 1)
    with pytest.raises(ValueError):
        check_partition((2, 0, 1))


def test_check_partition_rejects_non_integral_parts():
    for bad in ((1.5,), (2, 0.5), (3, "1"), ("x",)):
        with pytest.raises(ValueError):
            check_partition(bad)
    assert check_partition((2.0, 1)) == (2, 1)
    assert all(type(x) is int for x in check_partition((2.0, True)))


def test_padded():
    assert padded((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        padded((2, 1, 1), 2)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)
    # conjugate normalises its input, then runs the unchecked _conjugate
    assert conjugate([3, 1, 0]) == _conjugate((3, 1)) == (2, 1, 1)
    with pytest.raises(ValueError, match=re.escape("(1, 2)")):
        conjugate((1, 2))


@given(partitions)
def test_conjugate_is_involution(p):
    # column j of the diagram has #{i : p_i > j} boxes
    assert conjugate(p) == tuple(sum(x > j for x in p) for j in range(p[0] if p else 0))
    assert conjugate(conjugate(p)) == p
    assert weight(conjugate(p)) == weight(p)


def test_horizontal_strip():
    assert is_horizontal_strip((1,), (2,))
    assert is_horizontal_strip((2, 1), (3, 2))
    assert not is_horizontal_strip((1,), (2, 2))  # (2,2)/(1) stacks column 2
    assert is_horizontal_strip((), ())
    assert not is_horizontal_strip((2,), (1,))


def test_dominance():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((2, 1), (1, 1))  # unequal weights use partial sums
    assert not dominates((1, 1), (3,))


def test_add_remove_strips_roundtrip():
    base = (3, 1)
    for size in range(4):
        for bigger in add_horizontal_strips(base, size):
            assert is_horizontal_strip(base, bigger)
            assert weight(bigger) == weight(base) + size
            assert base in set(remove_horizontal_strips(bigger, size))


def test_strip_enumerators_reject_invalid_shapes():
    # unsorted, negative, interior zero: the error names the input itself
    for bad in [(1, 2), (2, -1), (-1,), (2, 0, 1)]:
        for strips in (add_horizontal_strips, remove_horizontal_strips):
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                strips(bad, 1)
    # a negative or non-integral strip size
    for strips in (add_horizontal_strips, remove_horizontal_strips):
        for size in (-1, 1.5):
            with pytest.raises(ValueError):
                strips((2,), size)


@given(partitions, st.integers(0, 4))
def test_remove_strips_are_strips(p, size):
    for smaller in remove_horizontal_strips(p, size):
        assert is_horizontal_strip(smaller, p)
        assert weight(smaller) == weight(p) - size


def test_strip_enumerators_are_complete():
    # every strip exactly once, against a filter over all partitions of the weight
    for p in enumerate_partitions(6):
        for size in range(5):
            added = list(add_horizontal_strips(p, size))
            assert sorted(added) == sorted(
                q for q in enumerate_partitions(0, exact_weight=weight(p) + size)
                if is_horizontal_strip(p, q))
            removed = list(remove_horizontal_strips(p, size))
            assert sorted(removed) == sorted(
                q for q in enumerate_partitions(0, exact_weight=max(weight(p) - size, 0))
                if weight(q) == weight(p) - size and is_horizontal_strip(q, p))


def test_strip_lists_match_the_recursive_reference_in_order():
    # the same strips in the same (lexicographic) order as the recursion
    # on the first row
    for p in enumerate_partitions(8):
        for size in range(6):
            assert list(add_horizontal_strips(p, size)) == add_strips(p, size), (p, size)
            assert list(remove_horizontal_strips(p, size)) == remove_strips(p, size), (p, size)


def test_box_tuples_match_the_recursive_reference_on_any_box():
    # boxes that are no strip: empty rows, zero rows inside, negative totals
    boxes = [((), (), 0), ((), (), 1), ((0,), (0,), 0), ((0, 0), (2, 2), 2),
             ((1, 0, 0), (3, 2, 0), 3), ((2,), (1,), 1), ((0, 0, 0), (1, 1, 1), -1),
             ((0, 1, 0), (2, 1, 2), 2)]
    for lower, upper, total in boxes:
        assert _box_tuples(lower, upper, total) == list(box_tuples(lower, upper, total))


def test_enumerate_order_and_classes():
    all4 = enumerate_partitions(4)
    assert all4 == sorted(all4, key=partition_sort_key)
    assert all4[:5] == [(), (1,), (2,), (1, 1), (3,)]
    even_rows = enumerate_partitions(4, "even_rows")
    assert even_rows == [(), (2,), (4,), (2, 2)]
    even_cols = enumerate_partitions(4, "even_columns")
    assert even_cols == [(), (1, 1), (2, 2), (1, 1, 1, 1)]
    assert enumerate_partitions(4, "all", exact_weight=3) == [(3,), (2, 1), (1, 1, 1)]


def test_enumerate_result_cannot_corrupt_the_memo():
    for cls in ("all", "even_rows", "even_columns"):
        for args in ((6, cls), (6, cls, 4)):
            first = enumerate_partitions(*args)
            expected = list(first)
            first.clear()
            enumerate_partitions(*args).append((99,))
            assert enumerate_partitions(*args) == expected, args


def test_enumerate_classes_are_conjugate():
    rows = set(enumerate_partitions(8, "even_rows"))
    cols = set(enumerate_partitions(8, "even_columns"))
    assert {conjugate(p) for p in rows} == cols


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3,), (1, 1))


# -- the C-level predicates against the loops they replaced ---------------


def _contains_loop(outer, inner):
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def _check_partition_loop(parts):
    p = integral_parts(parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p


def _outcome(fn, *args):
    """The result with the type of each part (True == 1), or the
    exception's type and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # any error: its type and message are compared
        return type(exc), str(exc)
    return result, tuple(map(type, result)) if isinstance(result, tuple) else type(result)


# ints (negative and zero too), bools, integral and non-integral floats
_parts = st.lists(
    st.one_of(st.integers(-2, 6), st.booleans(), st.integers(0, 6).map(float),
              st.sampled_from([0.5, 1.5, 2.5, -0.5])),
    max_size=6,
)
# half the draws weakly decreasing, with trailing and interior zeros
_shapes = st.one_of(_parts, _parts.map(lambda xs: sorted(xs, reverse=True)))


def _generator(parts):
    return (x for x in parts)


_containers = st.sampled_from([tuple, list, _generator])


@settings(max_examples=400, deadline=None)
@given(_shapes, _shapes, _containers, _containers)
def test_predicates_match_their_loops(a, b, wrap_a, wrap_b):
    # a fresh container per call, since a generator is consumed
    assert _outcome(check_partition, wrap_a(a)) == _outcome(_check_partition_loop, wrap_a(a))
    assert _outcome(contains, wrap_a(a), wrap_b(b)) == _outcome(_contains_loop, wrap_a(a), wrap_b(b))
