"""
The q-analogue of the Kostant partition function and the direct
alternating-sum definition of the graded multiplicities K_{lambda,mu}(q).

P_q(beta) counts multisets of positive roots summing to beta, graded by
multiset size.  The table peels one coordinate at a time: the roots that
touch eps_1 account for beta_1, and the rest of beta goes to the table
of rank n - 1, the rank-lowering that also drives the recurrence engine.

K_{lambda,mu}(q) = sum over the Weyl group of sign(w) * P_q(w o lambda - mu).
`k_direct` sums over the elements `weyl_iter` keeps when it prunes those
with w o lambda - mu outside the positive cone, where P_q vanishes.  This
module is the reference oracle the recurrence engine is tested against;
B7 (2,1) takes well under a second, C8 (2,2) about one.
"""

__all__ = [
    "QKostantTable",
    "q_kostant",
    "k_direct",
    "weight_multiplicity",
]

from functools import cache
from itertools import accumulate
from math import comb

from .partitions import Partition, integral_parts, padded
from .qseries import QSeries
from .rootsystems import RootSystem, check_dominant, dot_action, weyl_iter


def _rank_one(kind: str, b: int) -> dict[int, int]:
    """P_q(b) in rank 1 (b >= 0): roots e_1 (B), 2e_1 (C), none (D)."""
    if kind == "B":
        return {b: 1}
    if kind == "C":
        return {} if b % 2 else {b // 2: 1}
    return {} if b else {0: 1}


def _block_weight(kind: str, m: int, s: int, e: int) -> tuple[tuple[int, int], ...]:
    """Graded count, as (degree, count) pairs, of the multisets of roots
    touching eps_1 in rank m + 1 that sum to (s, d_2, ..., d_{m+1}), for
    any fixed d with sum |d_j| = s - e <= s.

    Those roots are e_1 -+ e_j (j > 1), plus e_1 (B) or 2e_1 (C).  With
    a_j copies of e_1 - e_j and b_j of e_1 + e_j, d_j = b_j - a_j fixes
    a_j + b_j = |d_j| + 2t_j, and the t_j share what e leaves: B puts the
    rest on e_1 (size s), D needs e = 2 sum t_j (size s), C spends c
    copies of 2e_1 with e = 2 sum t_j + 2c (size s - c).
    """
    if kind == "B":
        return ((s, comb(e // 2 + m, m)),)
    if e % 2:
        return ()
    if kind == "D":
        return ((s, comb(e // 2 + m - 1, m - 1)),)
    return tuple((s - c, comb(e // 2 - c + m - 1, m - 1)) for c in range(e // 2 + 1))


class QKostantTable:
    """Memoized q-Kostant partition function for one root system.

    P_q(beta) is peeled one coordinate at a time: the roots touching
    eps_1 take care of beta_1, and what they leave of the tail of beta is
    looked up in the rank-(n - 1) table, so tables are shared across
    ranks.  Rank 1 has a closed form (`_rank_one`).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.lower = _table(RootSystem(rs.kind, rs.rank - 1)) if rs.rank > 2 else None
        self.memo: dict[tuple[int, ...], dict[int, int]] = {}

    def pq_coeffs(self, beta: tuple[int, ...]) -> dict[int, int]:
        """Coefficients {k: P^k(beta)} of P_q(beta)."""
        if len(beta) != self.rs.rank:
            raise ValueError("weight has wrong length")
        if any(s < 0 for s in accumulate(beta)):
            return {}
        if self.rs.kind in ("C", "D") and sum(beta) % 2:
            return {}
        return self._rec(beta)

    def _rec(self, beta: tuple[int, ...]) -> dict[int, int]:
        """P_q(beta) for beta with nonnegative prefix sums."""
        hit = self.memo.get(beta)
        if hit is not None:
            return hit
        kind, lower = self.rs.kind, self.lower
        s, tail = beta[0], beta[1:]
        m = len(tail)
        blocks = [_block_weight(kind, m, s, e) for e in range(s + 1)]
        acc: dict[int, int] = {}
        for rest, e in _tails(tail, s):
            block = blocks[e]
            if not block:
                continue
            sub = lower._rec(rest) if lower else _rank_one(kind, rest[0])
            for deg, c in sub.items():
                for bdeg, bc in block:
                    acc[deg + bdeg] = acc.get(deg + bdeg, 0) + c * bc
        self.memo[beta] = acc
        return acc


def _tails(tail: tuple[int, ...], budget: int) -> list[tuple[tuple[int, ...], int]]:
    """Every tail - d with sum |d_j| <= budget and nonnegative prefix sums,
    with budget - sum |d_j|."""
    level = [((), budget, 0)]  # (head of tail - d, budget left, prefix sum)
    for tk in tail:
        level = [
            (head + (x,), left - abs(tk - x), prefix + x)
            for head, left, prefix in level
            for x in range(max(tk - left, -prefix), tk + left + 1)
        ]
    return [(head, left) for head, left, _ in level]


@cache
def _table(rs: RootSystem) -> QKostantTable:
    return QKostantTable(rs)


def q_kostant(rs: RootSystem, beta) -> QSeries:
    """P_q(beta): multisets of positive roots summing to beta, by size."""
    return QSeries(_table(rs).pq_coeffs(integral_parts(beta)))


def k_direct(rs: RootSystem, lam: Partition, mu: Partition) -> QSeries:
    """K_{lam,mu}(q) = sum_w sign(w) P_q(w o lam - mu), lam and mu dominant.

    The sum runs over the w that `weyl_iter(rs, lam, mu)` yields; every
    term it skips has w o lam - mu outside the positive cone, so is 0."""
    lam, mu = check_dominant(rs, lam), check_dominant(rs, mu)
    tab = _table(rs)
    mu_p = padded(mu, rs.rank)
    acc: dict[int, int] = {}
    for w, sgn in weyl_iter(rs, lam, mu):
        beta = tuple(a - b for a, b in zip(dot_action(w, lam, rs), mu_p))
        for deg, c in tab.pq_coeffs(beta).items():
            acc[deg] = acc.get(deg, 0) + sgn * c
    return QSeries(acc)


def weight_multiplicity(rs: RootSystem, lam: Partition, mu: Partition) -> int:
    """dim V(lam)_mu, the q=1 value of k_direct."""
    return k_direct(rs, lam, mu)(1)
