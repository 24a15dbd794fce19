from hypothesis import given, strategies as st

import pytest

from qweyl.partitions import (
    add_horizontal_strips,
    check_partition,
    conjugate,
    contains,
    dominates,
    enumerate_partitions,
    is_horizontal_strip,
    padded,
    partition_sort_key,
    remove_horizontal_strips,
    weight,
)

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


def test_padded():
    assert padded((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        padded((2, 1, 1), 2)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(partitions)
def test_conjugate_is_involution(p):
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


@given(partitions, st.integers(0, 4))
def test_remove_strips_are_strips(p, size):
    for smaller in remove_horizontal_strips(p, size):
        assert is_horizontal_strip(smaller, p)
        assert weight(smaller) == weight(p) - size


def test_enumerate_order_and_classes():
    all4 = enumerate_partitions(4)
    assert all4 == sorted(all4, key=partition_sort_key)
    assert all4[:5] == [(), (1,), (2,), (1, 1), (3,)]
    even_rows = enumerate_partitions(4, "even_rows")
    assert even_rows == [(), (2,), (4,), (2, 2)]
    even_cols = enumerate_partitions(4, "even_columns")
    assert even_cols == [(), (1, 1), (2, 2), (1, 1, 1, 1)]
    assert enumerate_partitions(4, "all", exact_weight=3) == [(3,), (2, 1), (1, 1, 1)]


def test_enumerate_classes_are_conjugate():
    rows = set(enumerate_partitions(8, "even_rows"))
    cols = set(enumerate_partitions(8, "even_columns"))
    assert {conjugate(p) for p in rows} == cols


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3,), (1, 1))
