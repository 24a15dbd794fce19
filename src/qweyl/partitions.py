"""
Integer partitions as tuples of weakly decreasing positive parts.

A partition is stored without trailing zeros; the empty partition is the
empty tuple.  Padding to a fixed length is done on demand with `padded`.
"""

__all__ = [
    "Partition",
    "check_partition",
    "check_bound",
    "integral_parts",
    "weight",
    "padded",
    "conjugate",
    "contains",
    "is_horizontal_strip",
    "dominates",
    "add_horizontal_strips",
    "remove_horizontal_strips",
    "enumerate_partitions",
    "partition_sort_key",
]

from collections.abc import Iterator
from functools import cache
from itertools import product
from operator import ge, le

Partition = tuple[int, ...]


def integral_parts(parts) -> tuple[int, ...]:
    """parts as a tuple of ints; a part that is not an integer (1.5, "2")
    is an error, one that equals an integer (2.0, 2+0j) is converted."""
    p = tuple(parts)
    for x in p:
        if type(x) is not int:
            # int() refuses a complex part, even one equal to an int
            ints = tuple(
                int(x.real) if isinstance(x, complex) and not x.imag else int(x) for x in p
            )
            if ints != p:
                raise ValueError(f"non-integral part in {p}")
            return ints
    return p


def check_partition(parts) -> Partition:
    """Normalize an iterable of parts to a valid partition tuple: trailing
    zeros are dropped, an interior zero or a non-integral part is an
    error.  The result is memoised on tuple(parts) (errors are not), and
    an equal tuple, (2.0, True) to (2, 1), gets the same int tuple, as
    equal parts convert to equal ints."""
    return _checked_partition(tuple(parts))


@cache
def _checked_partition(parts) -> Partition:
    p = integral_parts(parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p


def check_bound(value, name: str, low: int = 0) -> int:
    """value as an integer bound (a degree, weight or rank) >= low; a
    non-integer, even an integral float or a bool, is an error."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def weight(p: Partition) -> int:
    return sum(p)


def padded(p: Partition, n: int) -> tuple[int, ...]:
    if len(p) > n:
        raise ValueError(f"partition {p} has more than {n} parts")
    return p + (0,) * (n - len(p))


def conjugate(p: Partition) -> Partition:
    return _conjugate(check_partition(p))


def _conjugate(p: Partition) -> Partition:
    """conjugate on a valid partition, with no check.  Column j has length
    l = #{i : p_i > j}; as j grows, l only falls, so one walk up the rows
    finds every column."""
    out = []
    l = len(p)
    for j in range(p[0] if p else 0):
        while p[l - 1] <= j:
            l -= 1
        out.append(l)
    return tuple(out)


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment inner ⊆ outer."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def is_horizontal_strip(inner: Partition, outer: Partition) -> bool:
    """True iff outer/inner is a horizontal strip (at most one box per column).

    Equivalent to the interleaving outer[i+1] <= inner[i] <= outer[i].
    """
    if not contains(outer, inner):
        return False
    ii = padded(inner, len(outer))
    return all(outer[i + 1] <= ii[i] for i in range(len(outer) - 1))


def dominates(p: Partition, q: Partition) -> bool:
    """Partial-sum dominance p >= q (partitions may have unequal weight)."""
    s = t = 0
    for i in range(max(len(p), len(q))):
        s += p[i] if i < len(p) else 0
        t += q[i] if i < len(q) else 0
        if s < t:
            return False
    return True


def _box_tuples(lower: tuple[int, ...], upper: tuple[int, ...], total: int) -> list[Partition]:
    """The tuples t with lower[i] <= t[i] <= upper[i] and sum(t) == total,
    in lexicographic order, with trailing zeros dropped.

    itertools.product runs every row but the last through its range, in
    lexicographic order, and the last row is solved from the total, so
    the tuples come out in lexicographic order without a sort."""
    if not lower:
        return [()] if total == 0 else []
    low, high = lower[-1], upper[-1]
    out = []
    for head in product(*map(range, lower[:-1], [u + 1 for u in upper[:-1]])):
        last = total - sum(head)
        if low <= last <= high:
            if last:
                out.append(head + (last,))
            else:
                while head and not head[-1]:
                    head = head[:-1]
                out.append(head)
    return out


def add_horizontal_strips(p: Partition, size: int) -> list[Partition]:
    """All partitions obtained from p by adding a horizontal strip of `size` boxes."""
    p, size = check_partition(p), check_bound(size, "strip size")
    # a strip interleaves the shapes, out_1 >= p_1 >= out_2 >= p_2 >= ...:
    # row i of the result lies in [p_i, p_{i-1}], and row 1 in [p_1, p_1 + size]
    top = (p[0] if p else 0) + size
    return _box_tuples(p + (0,), (top,) + p, weight(p) + size)


def remove_horizontal_strips(p: Partition, size: int) -> list[Partition]:
    """All partitions obtained from p by removing a horizontal strip of `size` boxes."""
    p, size = check_partition(p), check_bound(size, "strip size")
    # p_1 >= out_1 >= p_2 >= out_2 >= ...: row i of the result lies in [p_{i+1}, p_i]
    return _box_tuples(p[1:] + (0,) if p else (), p, weight(p) - size)


def _partitions_of(k: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of k in reverse lexicographic order."""
    if k == 0:
        yield ()
        return
    cap = k if max_part is None else min(max_part, k)
    for first in range(cap, 0, -1):
        for rest in _partitions_of(k - first, first):
            yield (first,) + rest


def enumerate_partitions(
    max_weight: int,
    cls: str = "all",
    exact_weight: int | None = None,
) -> list[Partition]:
    """List partitions of a class, in (weight, reverse-lex) order.

    cls is one of "all", "even_rows" (every part even), "even_columns"
    (every column length even, i.e. parts come in equal pairs).  Each
    (weight, class) is enumerated once; every call returns a fresh list.
    """
    check_bound(max_weight, "max_weight")
    if cls not in ("all", "even_rows", "even_columns"):
        raise ValueError(f"unknown partition class {cls!r}")
    if exact_weight is not None:
        return list(_partitions_in_class(check_bound(exact_weight, "exact_weight"), cls))
    out: list[Partition] = []
    for k in range(max_weight + 1):
        out.extend(_partitions_in_class(k, cls))
    return out


@cache
def _partitions_in_class(k: int, cls: str) -> tuple[Partition, ...]:
    """The partitions of k in the class, in reverse-lex order."""
    if cls == "all":
        return tuple(_partitions_of(k))
    if k % 2:
        return ()
    if cls == "even_rows":
        return tuple(tuple(2 * x for x in p) for p in _partitions_of(k // 2))
    # even_columns: conjugates of even-row partitions, parts repeated in pairs
    doubled = [tuple(x for x in p for _ in (0, 1)) for p in _partitions_of(k // 2)]
    doubled.sort(key=lambda t: tuple(-x for x in t))
    return tuple(doubled)


def partition_sort_key(p: Partition):
    """Sort key giving (weight, reverse-lexicographic) order."""
    return (weight(p), tuple(-x for x in p))
