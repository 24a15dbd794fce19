"""
The q-analogue of the Kostant partition function and the direct
alternating-sum definition of the graded multiplicities K_{lambda,mu}(q).

P_q(beta) counts multisets of positive roots summing to beta, graded by
multiset size.  K_{lambda,mu}(q) = sum over the Weyl group of
sign(w) * P_q(w o lambda - mu).  This module is the reference oracle the
recurrence engine is tested against; it is practical up to rank 5 or so.
"""

__all__ = [
    "QKostantTable",
    "q_kostant",
    "k_direct",
    "weight_multiplicity",
]

from functools import cache

from .partitions import Partition, padded
from .qseries import QSeries
from .rootsystems import RootSystem, check_dominant, dot_action, positive_roots, weyl_iter


def _prefix_sums(v: tuple[int, ...]) -> tuple[int, ...]:
    out, s = [], 0
    for x in v:
        s += x
        out.append(s)
    return tuple(out)


class QKostantTable:
    """Memoized q-Kostant partition function for one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # roots in plain coordinates (positive_roots is doubled)
        self.roots = [tuple(c // 2 for c in r) for r in positive_roots(rs)]
        self.root_prefix = [_prefix_sums(r) for r in self.roots]
        self.memo: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}

    def pq_coeffs(self, beta: tuple[int, ...]) -> dict[int, int]:
        """Coefficients {k: P^k(beta)} of P_q(beta)."""
        if len(beta) != self.rs.rank:
            raise ValueError("weight has wrong length")
        if any(s < 0 for s in _prefix_sums(beta)):
            return {}
        if self.rs.kind in ("C", "D") and sum(beta) % 2:
            return {}
        return self._rec(0, beta)

    def _rec(self, idx: int, beta: tuple[int, ...]) -> dict[int, int]:
        if all(b == 0 for b in beta):
            # remaining roots all used zero times
            return {0: 1}
        if idx == len(self.roots):
            return {}
        key = (idx, beta)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        root = self.roots[idx]
        rpre = self.root_prefix[idx]
        bpre = _prefix_sums(beta)
        cap = min(bpre[k] // rpre[k] for k in range(len(root)) if rpre[k] > 0)
        acc: dict[int, int] = {}
        cur = beta
        for j in range(cap + 1):
            if j:
                cur = tuple(b - r for b, r in zip(beta, (c * j for c in root)))
                if any(s < 0 for s in _prefix_sums(cur)):
                    break
            for deg, c in self._rec(idx + 1, cur).items():
                acc[deg + j] = acc.get(deg + j, 0) + c
        self.memo[key] = acc
        return acc


@cache
def _table(rs: RootSystem) -> QKostantTable:
    return QKostantTable(rs)


def q_kostant(rs: RootSystem, beta, trunc=None) -> QSeries:
    """P_q(beta): multisets of positive roots summing to beta, by size."""
    coeffs = _table(rs).pq_coeffs(tuple(beta))
    return QSeries(coeffs, trunc)


def k_direct(rs: RootSystem, lam: Partition, mu: Partition) -> QSeries:
    """K_{lam,mu}(q) = sum_w sign(w) P_q(w o lam - mu), lam and mu dominant."""
    lam, mu = check_dominant(rs, lam), check_dominant(rs, mu)
    tab = _table(rs)
    mu_p = padded(mu, rs.rank)
    acc: dict[int, int] = {}
    for w, sgn in weyl_iter(rs):
        beta = tuple(a - b for a, b in zip(dot_action(w, lam, rs), mu_p))
        for deg, c in tab.pq_coeffs(beta).items():
            acc[deg] = acc.get(deg, 0) + sgn * c
    return QSeries(acc)


def weight_multiplicity(rs: RootSystem, lam: Partition, mu: Partition) -> int:
    """dim V(lam)_mu, the q=1 value of k_direct."""
    return k_direct(rs, lam, mu)(1)
