"""
Stable Hall-Littlewood data: the Q'-expansions whose coefficients are the
limit series K_{lambda,mu}(q), the truncated K-matrix over a window of
partitions, and the dual P-basis obtained by triangular inversion.

The window lists partitions in (weight, reverse-lexicographic) order.
K[lam, mu] is 1 on the diagonal and nonzero elsewhere only if
|mu| <= |lam| and lam dominates mu, so inversion is a triangular solve over
truncated series in (weight, lexicographic) order; it scatters each nonzero
entry of the inverse into the rows the K-matrix's support reaches.
"""

__all__ = [
    "TruncatedKMatrix",
    "qprime_expansion",
    "k_matrix",
    "p_basis_matrix",
]

from heapq import heappop, heappush

from .branching import CharExpansion, _check_family
from .partitions import (
    Partition,
    check_bound,
    check_partition,
    dominates,
    enumerate_partitions,
    weight,
)
from .qseries import QSeries
from .records import Record
from .recurrence import _k_limit


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
    for lam in enumerate_partitions(weight(mu) + 2 * D):
        series = _k_limit(family, lam, mu, D)
        if series:
            terms[lam] = series
    return CharExpansion(family, terms)


def k_matrix(family: str, weight_bound: int, D: int) -> TruncatedKMatrix:
    """The matrix K_{lam,mu}(q) mod q^{D+1} over the partition window."""
    _check_family(family)
    check_bound(weight_bound, "weight_bound")
    check_bound(D, "D")
    index = enumerate_partitions(weight_bound)
    sized = [(p, weight(p)) for p in index]
    entries: dict[tuple[Partition, Partition], QSeries] = {}
    for lam, wl in sized:
        # the window is sorted by weight, and K[lam, mu] = 0 for |mu| > |lam|
        for mu, wm in sized:
            if wm > wl:
                break
            if (wl - wm) % 2 or not dominates(lam, mu):
                continue
            series = _k_limit(family, lam, mu, D)
            if series:
                entries[(lam, mu)] = series
    return TruncatedKMatrix(family, weight_bound, D, index, entries)


def p_basis_matrix(family: str, weight_bound: int, D: int) -> TruncatedKMatrix:
    """Inverse of the K-matrix: expresses each P_mu on the s-basis.

    Exact as a matrix inverse mod q^{D+1}; the product with the K-matrix
    is the identity on rows lam with |lam| + 2D <= weight_bound, where
    the window is support-closed.

    Each column mu is solved by scattering: once inv[kappa, mu] is final
    and nonzero, K[lam, kappa] * inv[kappa, mu] is subtracted from the
    pending coefficient list of every row lam with K[lam, kappa] != 0, so
    rows that are provably zero are never visited.  Entries are inserted
    in the same order as by a full back substitution over the window.
    """
    km = k_matrix(family, weight_bound, D)
    index = km.index
    # K[lam, kappa] != 0 needs kappa <= lam in (weight, dominance); solve
    # K . inv = I row by row along a linear extension of that order:
    # inv[lam, mu] = delta - sum_{kappa < lam} K[lam,kappa] inv[kappa,mu]
    solve_order = sorted(index, key=lambda p: (weight(p), p))
    position = {p: i for i, p in enumerate(solve_order)}
    # cols[position of kappa]: (position of lam, (degree, coefficient)
    # pairs of K[lam, kappa])
    cols: dict[int, list] = {}
    for (lam, kappa), val in km.entries.items():
        if lam != kappa:
            cols.setdefault(position[kappa], []).append((position[lam], val.coeffs.items()))
    inv: dict[tuple[Partition, Partition], QSeries] = {}
    for mu in index:
        # pending[i]: the coefficients of inv[solve_order[i], mu] so far;
        # a row is pushed only by an earlier row, so every term it needs
        # has been scattered into it when it is popped
        pending = {position[mu]: [1] + [0] * D}
        todo = list(pending)
        while todo:
            i = heappop(todo)
            terms = [(e, c) for e, c in enumerate(pending.pop(i)) if c]
            if not terms:
                continue
            kappa = solve_order[i]
            inv[(kappa, mu)] = QSeries(terms, D)
            for j, kval in cols.get(i, ()):
                acc = pending.get(j)
                if acc is None:
                    acc = pending[j] = [0] * (D + 1)
                    heappush(todo, j)
                for d, c in kval:
                    for e, v in terms:
                        if d + e > D:
                            break
                        acc[d + e] -= c * v
    return TruncatedKMatrix(family, weight_bound, D, index, inv)
