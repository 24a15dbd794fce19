"""
Stable Hall-Littlewood data: the Q'-expansions whose coefficients are the
limit series K_{lambda,mu}(q), the truncated K-matrix over a window of
partitions, and the dual P-basis obtained by triangular inversion.

The window lists partitions in (weight, reverse-lexicographic) order.
K[lam, mu] is 1 on the diagonal and nonzero elsewhere only if
|mu| <= |lam|, |lam| - |mu| is even and lam dominates mu, so inversion is
a triangular solve over truncated series in (weight, lexicographic)
order; it scatters each nonzero entry of the inverse into the rows the
K-matrix's support reaches.

Both builders use the degree fact of recurrence's pruning: the lowest
degree of K_{lam,mu} is at least (|lam| - |mu|) / 2, and the lowest
degree of a product is the sum of its factors'.  So k_matrix never
looks up a pair with |lam| - |mu| > 2D, and p_basis_matrix never forms
a product K[lam, kappa] inv[kappa, mu] whose lowest degree exceeds D;
either is 0 mod q^{D+1}.
"""

__all__ = [
    "TruncatedKMatrix",
    "qprime_expansion",
    "k_matrix",
    "p_basis_matrix",
]

from itertools import accumulate
from operator import ge

from .branching import CharExpansion, _check_family
from .partitions import (
    Partition,
    check_bound,
    check_partition,
    enumerate_partitions,
    padded,
    weight,
)
from .qseries import QSeries
from .records import Record
from .recurrence import _fit, _k_limit, _pooled


class TruncatedKMatrix(Record):
    """A square matrix over truncated q-series, indexed by the partitions
    of weight <= weight_bound in (weight, reverse-lex) order."""

    __slots__ = ("family", "weight_bound", "degree", "index", "entries")

    def __init__(self, family: str, weight_bound: int, degree: int, index: list[Partition],
                 entries: dict[tuple[Partition, Partition], QSeries]):
        self.family = family
        self.weight_bound = weight_bound
        self.degree = degree
        self.index = index
        self.entries = entries

    def entry(self, lam: Partition, mu: Partition) -> QSeries:
        key = (check_partition(lam), check_partition(mu))
        return self.entries.get(key, QSeries.zero(self.degree))

    def matmul(self, other: "TruncatedKMatrix") -> "TruncatedKMatrix":
        """self . other over the common window, known modulo q^(D+1) for
        the smaller of the two degrees D."""
        if self.family != other.family:
            raise ValueError(f"incompatible families {self.family!r} and {other.family!r}")
        if self.index != other.index:
            raise ValueError("incompatible index sets")
        degree = min(self.degree, other.degree)
        rows: dict[Partition, list] = {}
        for (kappa, mu), right in other.entries.items():
            rows.setdefault(kappa, []).append((mu, right))
        # terms[lam, mu]: one (c, d, other[kappa, mu]) per c q^d of self[lam, kappa]
        terms: dict[tuple[Partition, Partition], list] = {}
        for (lam, kappa), left in self.entries.items():
            for mu, right in rows.get(kappa, ()):
                terms.setdefault((lam, mu), []).extend(
                    (c, d, right) for d, c in left.coeffs.items())
        prod = {}
        for key, ts in terms.items():
            entry = QSeries.combination(ts, degree)
            if entry:
                prod[key] = entry
        return TruncatedKMatrix(self.family, self.weight_bound, degree, self.index, prod)


def qprime_expansion(family: str, mu: Partition, D: int) -> CharExpansion:
    """Q'_mu on the universal character basis, complete modulo q^{D+1}.

    The support is exhausted by |lambda| <= |mu| + 2D since the lowest
    degree of K_{lambda,mu} is at least (|lambda| - |mu|) / 2.
    """
    _check_family(family)
    mu = check_partition(mu)
    check_bound(D, "D")
    terms: dict[Partition, QSeries] = {}
    # K_{lambda,mu} = 0 for |lambda| < |mu| and for |lambda| - |mu| odd,
    # the support of the module docstring
    for size in range(weight(mu), weight(mu) + 2 * D + 1, 2):
        for lam in enumerate_partitions(size, exact_weight=size):
            packed, _, _, _, series = _k_limit(family, lam, mu, D)
            if packed:
                terms[lam] = series
    return CharExpansion(family, terms)


def k_matrix(family: str, weight_bound: int, D: int) -> TruncatedKMatrix:
    """The matrix K_{lam,mu}(q) mod q^{D+1} over the partition window."""
    _check_family(family)
    check_bound(weight_bound, "weight_bound")
    check_bound(D, "D")
    index = enumerate_partitions(weight_bound)
    # by_weight[w]: the window's (partition, partial sums padded to
    # weight_bound) of weight w; lam dominates mu iff each partial sum of
    # lam is >= that of mu
    by_weight: list[list] = [[] for _ in range(weight_bound + 1)]
    for p in index:
        by_weight[weight(p)].append((p, tuple(accumulate(padded(p, weight_bound)))))
    entries: dict[tuple[Partition, Partition], QSeries] = {}
    for wl, row in enumerate(by_weight):
        # K[lam, mu] = 0 unless |lam| - |mu| is even and in [0, 2D]: the
        # lowest degree of K_{lam,mu} is at least (|lam| - |mu|) / 2
        cols = by_weight[max(wl - 2 * D, wl % 2):wl + 1:2]
        for lam, sums in row:
            for col in cols:
                for mu, mu_sums in col:
                    if all(map(ge, sums, mu_sums)):
                        packed, _, _, _, series = _k_limit(family, lam, mu, D)
                        if packed:
                            entries[(lam, mu)] = series
    return TruncatedKMatrix(family, weight_bound, D, index, entries)


def p_basis_matrix(family: str, weight_bound: int, D: int) -> TruncatedKMatrix:
    """Inverse of the K-matrix: expresses each P_mu on the s-basis.

    Exact as a matrix inverse mod q^{D+1}; the product with the K-matrix
    is the identity on rows lam with |lam| + 2D <= weight_bound, where
    the window is support-closed.

    Each column mu is solved by scattering: once inv[kappa, mu] is final
    and nonzero, K[lam, kappa] * inv[kappa, mu] is subtracted from the
    pending value of every row lam with K[lam, kappa] != 0.  The column is
    one ascending scan of the solve order, so a row that no nonzero entry
    reaches costs one dict miss and is never solved.  Entries are
    inserted in the same order as by a full back substitution over the
    window.  The scatter runs on the packed values of the stable memo:
    one integer product per (row, column), cut mod q^{D+1} once a row is
    final, under the coefficient bound that recurrence._fit proves.  Each
    column of K is sorted by the lowest degree of its entries, so a row
    whose value has lowest degree o scatters the entries of lowest
    degree <= D - o and stops at the first one above.
    """
    km = k_matrix(family, weight_bound, D)
    index = km.index
    # K[lam, kappa] != 0 needs kappa <= lam in (weight, dominance); solve
    # K . inv = I row by row along a linear extension of that order:
    # inv[lam, mu] = delta - sum_{kappa < lam} K[lam,kappa] inv[kappa,mu]
    solve_order = sorted(index, key=lambda p: (weight(p), p))
    position = {p: i for i, p in enumerate(solve_order)}
    # cols[position of kappa]: (lowest degree of K[lam, kappa], position
    # of lam, packed K[lam, kappa], sum of its |coefficients|), read from
    # the pooled entries of the memo k_matrix filled, by lowest degree
    cols: dict[int, list] = {}
    for lam, kappa in km.entries:
        if lam != kappa:
            packed, _, l1, low, _ = _k_limit(family, lam, kappa, D)
            cols.setdefault(position[kappa], []).append((low, position[lam], packed, l1))
    for col in cols.values():
        col.sort()
    inv: dict[tuple[Partition, Partition], QSeries] = {}
    for mu in index:
        # pending[i]: [packed inv[solve_order[i], mu] so far, bound on its
        # coefficients]; every K[lam, kappa] off the diagonal has lam after
        # kappa in solve order, so a row is scattered into only by earlier
        # rows, and every term it needs is in when the scan reaches it
        start = position[mu]
        pending = {start: [1, 1]}
        for i in range(start, len(solve_order)):
            row = pending.pop(i, None)
            if row is None:
                continue
            packed, top, _, lowest, series = _pooled(_fit(*row, D), D)
            if not packed:
                continue
            inv[(solve_order[i], mu)] = series
            # a product's lowest degree is the sum of its factors', so the
            # entries of lowest degree > D - (that of inv[kappa, mu]) add 0
            limit = D - lowest
            for low, j, kval, l1 in cols.get(i, ()):
                if low > limit:
                    break
                acc = pending.get(j)
                if acc is None:
                    pending[j] = [-kval * packed, l1 * top]
                else:
                    acc[0] -= kval * packed
                    acc[1] += l1 * top
    return TruncatedKMatrix(family, weight_bound, D, index, inv)
