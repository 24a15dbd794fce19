"""
Littlewood-Richardson coefficients by backtracking over skew fillings.

c^nu_{lambda,gamma} counts column-strict fillings of the skew shape
nu/lambda with content gamma whose reverse reading word (rows top to
bottom, each row right to left) is a lattice word.  The lattice condition
is checked incrementally during generation, which prunes most of the
search tree early.

Before a search runs, two ends of the dominance interval of the product
are tested.  c^nu_{lambda,gamma} is 0 unless
lambda u gamma <= nu <= lambda + gamma in dominance order (lambda + gamma
adds parts, lambda u gamma sorts the parts of both into one partition;
Macdonald, Symmetric Functions, ch. I).
Proof.  s_lambda s_gamma has nonnegative monomial coefficients, its
largest monomial in dominance order is x^{lambda+gamma}, and s_nu holds
m_nu with coefficient 1, so c^nu_{lambda,gamma} != 0 forces
nu <= lambda + gamma.  The involution omega keeps the coefficients,
c^{nu'}_{lambda',gamma'} = c^nu_{lambda,gamma}, so also
nu' <= lambda' + gamma'; conjugation reverses dominance and
(lambda' + gamma')' = lambda u gamma, so nu >= lambda u gamma.
The first partial sum of each upper end gives nu_1 <= lambda_1 + gamma_1
and l(nu) = nu'_1 <= l(lambda) + l(gamma).  These two cost O(1) and
catch 275 of the 332 triples outside the interval that a stable-table
seed-1 pass of the benchmark meets; the whole interval, tested by
partial sums, cost more than the searches it skipped.  A triple that
fails either is memoised as 0 without a search.

Results are memoized in a process-wide cache keyed after canonicalizing
with the symmetry c^nu_{lambda,gamma} = c^nu_{gamma,lambda}; the cache
can be persisted through qweyl.cache.
"""

__all__ = ["lr_coefficient", "lr_cache_stats", "lr_cache", "MemoDict"]

from .partitions import Partition, check_partition, contains, padded, weight


class MemoDict(dict):
    """A dict memo table with hit and miss counters, kept by its callers."""

    hits = misses = 0

    def clear(self):
        super().clear()
        self.hits = self.misses = 0


lr_cache = MemoDict()  # {(nu, a, b): c^nu_{a,b}}


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
        # cells inside lambda hold no letter (0); j < nu[i] <= nu[i - 1]
        above = grid[i - 1][j] if i > 0 else 0
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


def _outside_interval(nu: Partition, lam: Partition, gamma: Partition) -> bool:
    """True when nu_1 > lam_1 + gamma_1 or l(nu) > l(lam) + l(gamma), gamma
    nonempty: nu is then outside the dominance interval of s_lam s_gamma
    and c^nu_{lam,gamma} = 0 (module docstring)."""
    return nu[0] > (lam[0] if lam else 0) + gamma[0] or len(nu) > len(lam) + len(gamma)


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
    lr_cache.misses += 1
    val = 0 if _outside_interval(nu, lam, gamma) else _count_fillings(nu, lam, gamma)
    lr_cache[key] = val
    return val


def lr_cache_stats() -> tuple[int, int]:
    """(number of cached entries, number of cache hits so far)."""
    return (len(lr_cache), lr_cache.hits)
