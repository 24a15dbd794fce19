"""
Stable Hall-Littlewood data: the Q'-expansions whose coefficients are the
limit series K_{lambda,mu}(q), the truncated K-matrix over a window of
partitions, and the dual P-basis obtained by triangular inversion.

Partitions are ordered by (weight, reverse-lexicographic); in that order
the K-matrix is upper-unitriangular, so inversion is back substitution
over truncated series, restricted to the entries that can be nonzero.
"""

__all__ = [
    "TruncatedKMatrix",
    "qprime_expansion",
    "k_matrix",
    "p_basis_matrix",
]

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .branching import CharExpansion
from .partitions import (
    Partition,
    check_bound,
    check_partition,
    dominates,
    enumerate_partitions,
    weight,
)
from .qseries import QSeries
from .recurrence import k_limit


@dataclass
class TruncatedKMatrix:
    """A square matrix over truncated q-series, indexed by the partitions
    of weight <= weight_bound in (weight, reverse-lex) order."""

    family: str
    weight_bound: int
    degree: int
    index: list[Partition]
    entries: dict[tuple[Partition, Partition], QSeries]

    def entry(self, lam: Partition, mu: Partition) -> QSeries:
        return self.entries.get((lam, mu), QSeries.zero(self.degree))

    def matmul(self, other: "TruncatedKMatrix") -> "TruncatedKMatrix":
        if self.index != other.index:
            raise ValueError("incompatible index sets")
        cols: dict[Partition, list[Partition]] = {}
        for (a, b) in other.entries:
            cols.setdefault(a, []).append(b)
        prod: dict[tuple[Partition, Partition], QSeries] = {}
        for (lam, kappa), left in self.entries.items():
            for mu in cols.get(kappa, ()):
                term = left * other.entries[(kappa, mu)]
                if term:
                    cur = prod.get((lam, mu))
                    acc = term if cur is None else cur + term
                    if acc:
                        prod[(lam, mu)] = acc
                    elif cur is not None:
                        del prod[(lam, mu)]
        return TruncatedKMatrix(
            self.family, self.weight_bound, self.degree, self.index, prod
        )


def qprime_expansion(family: str, mu: Partition, D: int) -> CharExpansion:
    """Q'_mu on the universal character basis, complete modulo q^{D+1}.

    The support is exhausted by |lambda| <= |mu| + 2D since the lowest
    degree of K_{lambda,mu} is at least (|lambda| - |mu|) / 2.
    """
    mu = check_partition(mu)
    check_bound(D, "D")
    terms: dict[Partition, QSeries] = {}
    for lam in enumerate_partitions(weight(mu) + 2 * D):
        series = k_limit(family, lam, mu, D)
        if series:
            terms[lam] = series
    return CharExpansion(family, terms)


def _window(weight_bound: int) -> list[Partition]:
    return enumerate_partitions(weight_bound)


def k_matrix(family: str, weight_bound: int, D: int) -> TruncatedKMatrix:
    """The matrix K_{lam,mu}(q) mod q^{D+1} over the partition window."""
    check_bound(weight_bound, "weight_bound")
    check_bound(D, "D")
    index = _window(weight_bound)
    entries: dict[tuple[Partition, Partition], QSeries] = {}
    for lam in index:
        for mu in index:
            if weight(lam) < weight(mu) or (weight(lam) - weight(mu)) % 2:
                continue
            if not dominates(lam, mu):
                continue
            series = k_limit(family, lam, mu, D)
            if series:
                entries[(lam, mu)] = series
    return TruncatedKMatrix(family, weight_bound, D, index, entries)


def p_basis_matrix(family: str, weight_bound: int, D: int) -> TruncatedKMatrix:
    """Inverse of the K-matrix: expresses each P_mu on the s-basis.

    Exact as a matrix inverse mod q^{D+1}; the product with the K-matrix
    is the identity on rows lam with |lam| + 2D <= weight_bound, where
    the window is support-closed.

    Each column mu is solved only on the rows lam with K[lam, kappa] != 0
    for some nonzero inv[kappa, mu]; every other entry of the column is
    provably zero.  Entries are inserted in the same order as by a full
    back substitution over the window.
    """
    km = k_matrix(family, weight_bound, D)
    index = km.index
    rows: dict[Partition, list[tuple[Partition, QSeries]]] = {}
    cols: dict[Partition, list[Partition]] = {}
    for (lam, kappa), val in km.entries.items():
        if lam != kappa:
            rows.setdefault(lam, []).append((kappa, val))
            cols.setdefault(kappa, []).append(lam)
    inv: dict[tuple[Partition, Partition], QSeries] = {}
    # K[lam, kappa] != 0 needs kappa <= lam in (weight, dominance); solve
    # K . inv = I row by row along a linear extension of that order:
    # inv[lam, mu] = delta - sum_{kappa < lam} K[lam,kappa] inv[kappa,mu]
    solve_order = sorted(index, key=lambda p: (weight(p), p))
    position = {p: i for i, p in enumerate(solve_order)}
    for mu in index:
        inv[(mu, mu)] = QSeries.one(D)
        # a worklist in solve order: a row is pushed only by an earlier row,
        # so each nonzero inv[kappa, mu] it needs is done when it is popped
        todo = [position[p] for p in cols.get(mu, ())]
        heapify(todo)
        queued = set(todo)
        while todo:
            lam = solve_order[heappop(todo)]
            # -sum K[lam,kappa] inv[kappa,mu], one q^d term of K at a time
            entry = QSeries.combination(
                (
                    (-c, d, inv[(kappa, mu)])
                    for kappa, kval in rows[lam]
                    if (kappa, mu) in inv
                    for d, c in kval.coeffs.items()
                ),
                D,
            )
            if entry:
                inv[(lam, mu)] = entry
                for p in cols.get(lam, ()):
                    i = position[p]
                    if i not in queued:
                        queued.add(i)
                        heappush(todo, i)
    return TruncatedKMatrix(family, weight_bound, D, index, inv)
