"""Weyl-group references for the tests.  Sharing no code with the walk
`qweyl.rootsystems.weyl_iter`: the whole group by brute force, the sign
of an element as a permutation parity, composition, and the
Brauer-Klimyk step into the dominant chamber.  Over that walk: the
alternating sum of `qweyl.qkostant.k_direct` term by term, one `P_q`
value per Weyl term, the reference for its peeled signed sum."""

from itertools import permutations, product

from qweyl.partitions import padded
from qweyl.qkostant import _direct_table
from qweyl.qseries import QSeries, _unpack_signed
from qweyl.rootsystems import (RootSystem, SignedPermutation, check_dominant, dot_action,
                               rho_doubled, weyl_iter)


def whole_group(rs: RootSystem) -> list[SignedPermutation]:
    """Every element of the Weyl group: each permutation times each sign
    pattern, with an even number of flips in type D."""
    n = rs.rank
    return [
        SignedPermutation(perm, frozenset(j for j in range(n) if pattern[j]))
        for perm in permutations(range(n))
        for pattern in product((False, True), repeat=n)
        if rs.kind != "D" or sum(pattern) % 2 == 0
    ]


def sign(w: SignedPermutation) -> int:
    """(-1)^length(w): the parity of w.perm, by its cycles, times
    (-1)^(number of flips)."""
    seen = [False] * len(w.perm)
    parity = 1
    for i in range(len(w.perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = w.perm[j]
            clen += 1
        if clen % 2 == 0:
            parity = -parity
    return parity * (-1) ** len(w.flips)


def compose(w: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    """w after v, as maps on weights: compose(w, v).act = w.act o v.act."""
    perm = tuple(w.perm[p] for p in v.perm)
    flips = frozenset(k for k in range(len(perm)) if (k in v.flips) != (v.perm[k] in w.flips))
    return SignedPermutation(perm, flips)


def dominant_dot(rs: RootSystem, beta: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Brauer-Klimyk step: move beta into the dominant chamber by the dot action.

    beta is a full-length weight in doubled coordinates.  Returns
    (sign(w), w o beta) for the unique w with w(beta + rho) strictly
    dominant, w o beta in plain coordinates without trailing zeros (in
    type D the last coordinate may be negative), or (0, ()) when
    beta + rho lies on a wall.

    Sorting the |v_i| of v = beta + rho descending gives w: two equal
    |v_i| put v on a wall, as does a zero v_i in types B and C.  The sign
    is the parity of the sorting permutation times (-1)^(number of
    negative v_i) in types B and C.  Type D only flips an even number of
    signs: the sign is the parity alone, and an odd number of negative
    v_i leaves the last coordinate negative (a zero coordinate sorts
    last and stays 0).
    """
    rd = rho_doubled(rs)
    v = [b + r for b, r in zip(beta, rd)]
    mags = [abs(x) for x in v]
    dom = sorted(mags, reverse=True)
    if any(a == b for a, b in zip(dom, dom[1:])) or (rs.kind != "D" and dom[-1] == 0):
        return 0, ()
    n = len(v)
    inversions = sum(mags[i] < mags[j] for i in range(n) for j in range(i + 1, n))
    negatives = sum(x < 0 for x in v)
    sign = (-1) ** inversions
    if rs.kind != "D":
        sign *= (-1) ** negatives
    elif negatives % 2:
        dom[-1] = -dom[-1]
    lam = [(x - r) // 2 for x, r in zip(dom, rd)]
    while lam and lam[-1] == 0:
        lam.pop()
    return sign, tuple(lam)


def k_direct_by_terms(rs: RootSystem, lam, mu) -> QSeries:
    """K_{lam,mu}(q) = sum_w sign(w) P_q(w o lam - mu) over the w of
    `weyl_iter(rs, lam, mu)`, one `pq_coeffs` read per Weyl term, summed
    packed on the table `k_direct` reads and decoded once."""
    lam, mu = check_dominant(rs, lam), check_dominant(rs, mu)
    tab = _direct_table(rs, lam, mu)
    mu_p = padded(mu, rs.rank)
    acc = sum(sgn * tab.pq_coeffs(tuple(a - b for a, b in zip(dot_action(w, lam, rs), mu_p)))
              for w, sgn in weyl_iter(rs, lam, mu))
    return QSeries._trusted(_unpack_signed(acc, tab.width), None)
