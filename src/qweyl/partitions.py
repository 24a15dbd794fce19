"""
Integer partitions as tuples of weakly decreasing positive parts.

A partition is stored without trailing zeros; the empty partition is the
empty tuple.  Padding to a fixed length is done on demand with `padded`.
"""

__all__ = [
    "Partition",
    "check_partition",
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

from itertools import count
from typing import Iterator, Optional

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Normalize an iterable of parts to a valid partition tuple: trailing
    zeros are dropped, an interior zero is an error."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p


def weight(p: Partition) -> int:
    return sum(p)


def padded(p: Partition, n: int) -> tuple[int, ...]:
    if len(p) > n:
        raise ValueError(f"partition {p} has more than {n} parts")
    return p + (0,) * (n - len(p))


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment inner ⊆ outer."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


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


def add_horizontal_strips(p: Partition, size: int) -> Iterator[Partition]:
    """All partitions obtained from p by adding a horizontal strip of `size` boxes."""

    def rec(i: int, prev_cap: int, left: int, acc: list[int]):
        if i == len(p):
            # one optional new row of length <= min(prev_cap, left)
            if left == 0:
                yield check_partition(acc)
            elif left <= prev_cap:
                yield check_partition(acc + [left])
            return
        base = p[i]
        hi = min(prev_cap, base + left)
        for new in range(base, hi + 1):
            acc.append(new)
            yield from rec(i + 1, base, left - (new - base), acc)
            acc.pop()

    yield from rec(0, p[0] + size if p else size, size, [])


def remove_horizontal_strips(p: Partition, size: int) -> Iterator[Partition]:
    """All partitions obtained from p by removing a horizontal strip of `size` boxes."""

    def rec(i: int, left: int, acc: list[int]):
        if i == len(p):
            if left == 0:
                yield check_partition(acc)
            return
        below = p[i + 1] if i + 1 < len(p) else 0
        # row i shrinks to new in [below, p[i]] so that p/result interleaves
        for new in range(below, p[i] + 1):
            if p[i] - new > left:
                continue
            acc.append(new)
            yield from rec(i + 1, left - (p[i] - new), acc)
            acc.pop()

    yield from rec(0, size, [])


def _partitions_of(k: int, max_part: Optional[int] = None) -> Iterator[Partition]:
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
    exact_weight: Optional[int] = None,
) -> list[Partition]:
    """List partitions of a class, in (weight, reverse-lex) order.

    cls is one of "all", "even_rows" (every part even), "even_columns"
    (every column length even, i.e. parts come in equal pairs).
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    if cls not in ("all", "even_rows", "even_columns"):
        raise ValueError(f"unknown partition class {cls!r}")
    weights = [exact_weight] if exact_weight is not None else list(range(max_weight + 1))
    out: list[Partition] = []
    for k in weights:
        if cls == "even_rows":
            if k % 2:
                continue
            out.extend(tuple(2 * x for x in p) for p in _partitions_of(k // 2))
        elif cls == "even_columns":
            if k % 2:
                continue
            # conjugates of even-row partitions: parts repeated in pairs
            doubled = [
                tuple(x for x in p for _ in (0, 1)) for p in _partitions_of(k // 2)
            ]
            doubled.sort(key=lambda t: tuple(-x for x in t))
            out.extend(doubled)
        else:
            out.extend(_partitions_of(k))
    return out


def partition_sort_key(p: Partition):
    """Sort key giving (weight, reverse-lexicographic) order."""
    return (weight(p), tuple(-x for x in p))
