"""Weyl-group references for the tests, sharing no code with the walk
`qweyl.rootsystems.weyl_iter`: the whole group by brute force, the sign
of an element as a permutation parity, composition, and the
Brauer-Klimyk step into the dominant chamber."""

from itertools import permutations, product

from qweyl.rootsystems import RootSystem, SignedPermutation, rho_doubled


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
