"""
Littlewood-Richardson coefficients by backtracking over skew fillings.

c^nu_{lambda,gamma} counts column-strict fillings of the skew shape
nu/lambda with content gamma whose reverse reading word (rows top to
bottom, each row right to left) is a lattice word.  The lattice condition
is checked incrementally during generation, which prunes most of the
search tree early.

Results are memoized in a process-wide cache keyed after canonicalizing
with the symmetry c^nu_{lambda,gamma} = c^nu_{gamma,lambda}; the cache
can be persisted through qweyl.cache.
"""

__all__ = ["lr_coefficient", "lr_cache_stats", "lr_cache", "LRCache"]

from .partitions import Partition, check_partition, contains, padded, weight


class LRCache(dict):
    """Memo table {(nu, a, b): c^nu_{a,b}} that counts its hits."""

    hits = 0

    def clear(self):
        super().clear()
        self.hits = 0


lr_cache = LRCache()


def _count_fillings(nu: Partition, lam: Partition, gamma: Partition) -> int:
    rows = len(nu)
    lam_p = padded(lam, rows)
    m = len(gamma)
    remaining = list(gamma)
    counts = [0] * (m + 1)  # counts[v] = letters v placed so far, 1-based
    grid = [[0] * nu[i] for i in range(rows)]

    cells = []
    for i in range(rows):
        for j in range(nu[i] - 1, lam_p[i] - 1, -1):
            cells.append((i, j))

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        right = grid[i][j + 1] if j + 1 < nu[i] else m
        above = grid[i - 1][j] if i > 0 and j < nu[i - 1] and j >= lam_p[i - 1] else 0
        # cells above inside lambda hold no letter (treated as 0)
        if i > 0 and j < lam_p[i - 1]:
            above = 0
        total = 0
        lo = above + 1
        hi = right
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            # lattice condition on the reverse reading word
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            remaining[v - 1] -= 1
            counts[v] += 1
            grid[i][j] = v
            total += rec(idx + 1)
            grid[i][j] = 0
            counts[v] -= 1
            remaining[v - 1] += 1
        return total

    return rec(0)


def lr_coefficient(lam: Partition, gamma: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c^nu_{lam,gamma}."""
    lam, gamma, nu = check_partition(lam), check_partition(gamma), check_partition(nu)
    if weight(nu) != weight(lam) + weight(gamma):
        return 0
    if not contains(nu, lam) or not contains(nu, gamma):
        return 0
    if not gamma:
        return 1 if lam == nu else 0
    a, b = sorted((lam, gamma))
    key = (nu, a, b)
    cached = lr_cache.get(key)
    if cached is not None:
        lr_cache.hits += 1
        return cached
    val = _count_fillings(nu, lam, gamma)
    lr_cache[key] = val
    return val


def lr_cache_stats() -> tuple[int, int]:
    """(number of cached entries, number of cache hits so far)."""
    return (len(lr_cache), lr_cache.hits)
