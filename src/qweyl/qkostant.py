"""
The q-analogue of the Kostant partition function and the direct
alternating-sum definition of the graded multiplicities K_{lambda,mu}(q).

P_q(beta) counts multisets of positive roots summing to beta, graded by
multiset size.  The table peels one coordinate at a time: the roots that
touch eps_1 account for beta_1, and the rest of beta is a key of rank
n - 1 in the same table, the rank-lowering that also drives the
recurrence engine.
A table holds each P_q(beta) as one packed integer, coefficient k in
bits [k w, (k + 1) w): the Kronecker substitution q -> 2^w, under which
a sum of polynomials is one integer addition (qweyl.qseries holds the
packing helpers, and the one slot reader, the stable engine shares).
`pq_width` picks a slot width w with every coefficient below 2^(w-1),
so each slot reads back exactly.

K_{lambda,mu}(q) = sum over the Weyl group of sign(w) * P_q(w o lambda - mu).
`k_direct` takes the elements `weyl_iter` keeps when it prunes those
with w o lambda - mu outside the positive cone, where P_q vanishes, and
peels each of their terms on Q+ once, as the table would: the signed
block weights collect on the rests one coordinate shorter, most of them
cancel, and only the rests left with a nonzero coefficient read the
table.  The sum stays packed and is decoded once (the width covers
every coefficient of K too).  This module is the reference oracle the
recurrence engine is tested against.  `pq_coeffs` answers 0 off the
positive root cone Q+ by rootsystems._off_cone, the test the finite
recurrence reads too; so that shared test is itself checked against
the peel `_rec`, which never reads it.
In one process on a 2-core VM, Python 3.11, from empty tables: B6 (3)
takes ~0.006 s, C8 (2,2) ~0.16 s, B10 (2,1) ~0.56 s and B8 (3,2,1)
~2.1 s.
"""

__all__ = [
    "QKostantTable",
    "pq_width",
    "q_kostant",
    "k_direct",
    "weight_multiplicity",
]

from functools import cache
from itertools import accumulate
from math import comb

from .partitions import Partition, integral_parts, padded
from .qseries import QSeries, _pack, _unpack_signed
from .rootsystems import RootSystem, _off_cone, check_dominant, dot_action, weyl_iter


def _height(beta: tuple[int, ...]) -> int:
    """h(beta) = sum_i (n - i) beta_i (i from 0), the sum of the prefix
    sums of beta: <beta, rho-check> in type B, and at least 1 on every
    positive root of B_n, C_n and D_n."""
    return sum(accumulate(beta))


def pq_width(rs: RootSystem, height: int) -> int:
    """Slot width, a power of two >= 64, that holds every coefficient of
    P_q(beta) for beta of height h(beta) <= height, at rank rs.rank and
    below, and every coefficient of K_{lam,mu}(q) at rank rs.rank for
    h(lam - mu) <= height, with a sign bit to spare.

    Proof.  The coefficient P^k(beta) of q^k counts multisets of k of
    the N positive roots summing to beta, so it is >= 0 and at most the
    number of all such multisets, C(N + k - 1, k).  h is linear and >= 1
    on every positive root, so P^k(beta) = 0 for k > h(beta), and
    C(N + k - 1, k) grows with k and with N; a rank m < n has fewer
    positive roots.  So with h = max(height, 0),
    sum_k P^k(beta) <= sum_{k <= h} C(N + k - 1, k) = C(N + h, h), which
    bounds each P^k(beta) too.  For K^k, the coefficient of q^k in
    K_{lam,mu}(q) with h(lam - mu) <= h:
      - 0 <= K^k: the coefficients of K are nonnegative (Lusztig 1983;
        Brylinski 1989);
      - K^k <= dim V(lam)_mu: those coefficients sum to it;
      - dim V(lam)_mu <= dim M(lam)_mu: V(lam) is a quotient of the
        Verma module M(lam);
      - dim M(lam)_mu = sum_k P^k(lam - mu) <= C(N + h, h), as above.
    So every coefficient either way is < 2^b with b the bit length of
    C(N + h, h).  Every partial sum the table forms is a sum of
    nonnegative parts of one P_q coefficient, so no slot carries into
    the next.  k_direct forms the integer
    sum_rest c_rest(2^w) P_q(rest)(2^w), c_rest the signed sum of the
    block weights its Weyl terms push onto rest.  Its slots may carry and
    go negative on the way, but q -> 2^w is a ring homomorphism
    Z[q] -> Z, K is linear in P_q, and `QKostantTable._rec` is the
    identity P_q(beta) = sum_rest W_e P_q(rest); so that integer is
    exactly K(2^w), read only once, as K.  The width w is a power of two
    > b, so that queries share tables, and every coefficient is
    < 2^(w-1): the signed reader qseries._unpack_signed reads it back.
    """
    n = rs.rank
    roots = n * n if rs.kind != "D" else n * (n - 1)
    height = max(height, 0)
    bits = comb(roots + height, height).bit_length()
    width = 64
    while width <= bits:
        width *= 2
    return width


def _rank_one(kind: str, b: int, width: int) -> int:
    """P_q(b) in rank 1 (b >= 0), packed: roots e_1 (B), 2e_1 (C), none (D)."""
    if kind == "B":
        return 1 << (b * width)
    if kind == "C":
        return 0 if b % 2 else 1 << (b // 2 * width)
    return 0 if b else 1


def _block_weight(kind: str, m: int, s: int, e: int) -> tuple[tuple[int, int], ...]:
    """Graded count, as (degree, count) pairs, of the multisets of roots
    touching eps_1 in rank m + 1 that sum to (s, d_2, ..., d_{m+1}), for
    any fixed d with sum |d_j| = s - e <= s.

    Those roots are e_1 -+ e_j (j > 1), plus e_1 (B) or 2e_1 (C).  With
    a_j copies of e_1 - e_j and b_j of e_1 + e_j, d_j = b_j - a_j fixes
    a_j + b_j = |d_j| + 2t_j, and the t_j share what e leaves: B puts the
    rest on e_1 (size s), D needs e = 2 sum t_j (size s), C spends c
    copies of 2e_1 with e = 2 sum t_j + 2c (size s - c).  So C and D have
    no multiset, and an empty block, at odd e.
    """
    if kind == "B":
        return ((s, comb(e // 2 + m, m)),)
    if e % 2:
        return ()
    if kind == "D":
        return ((s, comb(e // 2 + m - 1, m - 1)),)
    return tuple((s - c, comb(e // 2 - c + m - 1, m - 1)) for c in range(e // 2 + 1))


@cache
def _block_weights(kind: str, m: int, s: int, width: int) -> tuple[int, ...]:
    """The block weights W_e of `_block_weight` for e = 0..s, each packed
    in slots of `width` bits, as `_rec` and `k_direct` read them."""
    return tuple(_pack(_block_weight(kind, m, s, e), width) for e in range(s + 1))


class QKostantTable:
    """Memoized q-Kostant partition function for one type at every rank,
    packed in slots of `width` bits.

    `memo` maps beta to the packed P_q(beta); the rank of a key is
    len(beta).  P_q(beta) is peeled one coordinate at a time: the roots
    touching eps_1 take care of beta_1, and what they leave of the tail
    of beta is a key one shorter in the same memo, so every rank shares
    one table.  A key of length 1 holds its closed form (`_rank_one`).
    """

    def __init__(self, kind: str, width: int):
        self.kind = kind
        self.width = width
        self.memo: dict[tuple[int, ...], int] = {}

    def pq_coeffs(self, beta: tuple[int, ...]) -> int:
        """P_q(beta), packed: 0 off the positive root cone Q+, where no
        multiset of roots sums to beta (`rootsystems._off_cone`, exact in
        types B, C and D), and the peel `_rec` on Q+."""
        return 0 if _off_cone(self.kind, len(beta), beta) else self._rec(beta)

    def _rec(self, beta: tuple[int, ...]) -> int:
        """Packed P_q(beta) for beta with nonnegative prefix sums.

        Every root touching eps_1 has a positive eps_1 coordinate, so
        P_q(0, tail) = P_q(tail).  Otherwise each rest = tail - d with
        sum |d_j| <= s = beta_1 and nonnegative prefix sums leaves
        e = s - sum |d_j| to the eps_1 block: sums[e] adds up P_q(rest)
        over those rests, one integer addition each, and each block
        weight is then applied once per e, as one multiply by its packed
        value in the row of `_block_weights`.
        A rest is a head from `_heads` plus a last coordinate x.  In types
        C and D only the rests with e even are visited: an odd e has an
        empty block.  There `pq_coeffs` peels only a beta of even
        coordinate sum (every root has one, so P_q is 0 elsewhere), and
        e = s - sum |d_j| = sum(beta) + sum(rest) mod 2, so e is even
        exactly when sum(rest) is, and each rest visited has an even sum
        again.  The least x of a head gives an even e (x = tk - left
        gives e = 0, x = -prefix gives sum(rest) = 0), and x steps by 2.

        Every rest has height <= h(beta): its coordinates are those of
        the tail moved by sum |d_j| <= s, each weighted at most n - 1,
        while beta_1 = s is weighted n.  So the bound of `pq_width` for
        beta covers every state the peel reaches from it.
        """
        hit = self.memo.get(beta)
        if hit is not None:
            return hit
        kind, width = self.kind, self.width
        s, tail = beta[0], beta[1:]
        if not tail:
            acc = self.memo[beta] = _rank_one(kind, s, width)
            return acc
        if not s:
            acc = self.memo[beta] = self._rec(tail)
            return acc
        sums = [0] * (s + 1)
        tk, step = tail[-1], 1 if kind == "B" else 2
        get, rec = self.memo.get, self._rec
        for head, left, prefix in _heads(tail[:-1], s):
            lo = tk - left if tk - left > -prefix else -prefix
            for x in range(lo, tk + left + 1, step):
                rest = head + (x,)
                sub = get(rest)
                if sub is None:
                    sub = rec(rest)
                sums[left - (tk - x if x < tk else x - tk)] += sub
        row = _block_weights(kind, len(tail), s, width)
        acc = 0
        for e, total in enumerate(sums):
            if total:
                acc += total * row[e]
        self.memo[beta] = acc
        return acc


def _heads(head: tuple[int, ...], budget: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(head - d, budget - sum |d_j|, sum of head - d) for every d with
    sum |d_j| <= budget and head - d of nonnegative prefix sums."""
    level = [((), budget, 0)]
    for tk in head:
        level = [
            (part + (x,), left - (tk - x if x < tk else x - tk), prefix + x)
            for part, left, prefix in level
            for x in range(tk - left if tk - left > -prefix else -prefix, tk + left + 1)
        ]
    return level


@cache
def _table(kind: str, width: int) -> QKostantTable:
    return QKostantTable(kind, width)


def q_kostant(rs: RootSystem, beta) -> QSeries:
    """P_q(beta): multisets of positive roots summing to beta, by size."""
    beta = integral_parts(beta)
    if len(beta) != rs.rank:
        raise ValueError("weight has wrong length")
    tab = _table(rs.kind, pq_width(rs, _height(beta)))
    return QSeries._trusted(_unpack_signed(tab.pq_coeffs(beta), tab.width), None)


def _direct_table(rs: RootSystem, lam: Partition, mu: Partition) -> QKostantTable:
    """The table k_direct(rs, lam, mu) reads, lam and mu dominant.

    Every w o lam - mu has height <= h(lam - mu), since lam - w o lam is
    a sum of positive roots, and so has every state the peel reaches
    from it (see `_rec`); its width is pq_width of that height."""
    n = rs.rank
    height = _height(padded(lam, n)) - _height(padded(mu, n))
    return _table(rs.kind, pq_width(rs, height))


def k_direct(rs: RootSystem, lam: Partition, mu: Partition) -> QSeries:
    """K_{lam,mu}(q) = sum_w sign(w) P_q(w o lam - mu), lam and mu dominant.

    The sum runs over the w that `weyl_iter(rs, lam, mu)` yields; every
    term it skips has w o lam - mu outside the positive cone, so is 0,
    and of the rest only the beta_w = w o lam - mu on Q+ count
    (`rootsystems._off_cone`).  Each of those is peeled once, as `_rec`
    peels it: P_q(beta_w) = sum over its rests of W_e(q) P_q(rest), the
    rests one coordinate shorter, e their leftover budget and W_e the
    block weight, packed in the row of `_block_weights` that `_rec` reads
    too; beta_1 = 0 gives the rest tail with weight 1.  The sum is linear
    in P_q, so K = sum over rests of c_rest(q) P_q(rest), c_rest the
    signed sum of sign(w) W_e over the terms that reach it.  Most terms
    cancel there, and only the rests with c_rest != 0 read the table.
    Packing q -> 2^w is a ring homomorphism, so the signed packed
    products sum to exactly K(2^w) whatever the slots of the c_rest
    hold; it is decoded once, as every coefficient of K is below
    2^(w-1) (see `pq_width`)."""
    lam, mu = check_dominant(rs, lam), check_dominant(rs, mu)
    tab = _direct_table(rs, lam, mu)
    kind, n, width = rs.kind, rs.rank, tab.width
    mu_p = padded(mu, n)
    step = 1 if kind == "B" else 2
    coeffs: dict[tuple[int, ...], int] = {}
    get = coeffs.get
    for w, sgn in weyl_iter(rs, lam, mu):
        beta = tuple(a - b for a, b in zip(dot_action(w, lam, rs), mu_p))
        if _off_cone(kind, n, beta):
            continue
        s, tail = beta[0], beta[1:]
        weights = _block_weights(kind, n - 1, s, width)
        tk = tail[-1]
        for head, left, prefix in _heads(tail[:-1], s):
            lo = tk - left if tk - left > -prefix else -prefix
            for x in range(lo, tk + left + 1, step):
                rest = head + (x,)
                coeffs[rest] = get(rest, 0) + sgn * weights[left - (tk - x if x < tk else x - tk)]
    acc = sum(c * tab.pq_coeffs(rest) for rest, c in coeffs.items() if c)
    return QSeries._trusted(_unpack_signed(acc, width), None)


def weight_multiplicity(rs: RootSystem, lam: Partition, mu: Partition) -> int:
    """dim V(lam)_mu, the q=1 value of k_direct."""
    return k_direct(rs, lam, mu)(1)
