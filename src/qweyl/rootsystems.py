"""
Root-system data for the classical types B_n, C_n, D_n, streaming
iteration over their Weyl groups of signed permutations, and the
reflection of a weight into the dominant chamber.

All weights are kept in doubled coordinates (the stored vector is 2*beta),
so the half-integral rho of type B stays exact.  Weights that face the
caller (partitions, w o lambda - mu) are converted back to plain integers.
"""

__all__ = [
    "RootSystem",
    "check_dominant",
    "SignedPermutation",
    "positive_roots",
    "rho",
    "rho_doubled",
    "weyl_iter",
    "weyl_order",
    "dot_action",
    "dominant_dot",
    "degrees",
    "exponents",
    "weyl_dim",
]

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from typing import Iterator

from .partitions import check_partition, padded

Weight = tuple[int, ...]  # doubled coordinates


@dataclass(frozen=True)
class RootSystem:
    kind: str  # "B" | "C" | "D"
    rank: int

    def __post_init__(self):
        if self.kind not in ("B", "C", "D"):
            raise ValueError(f"unknown type {self.kind!r}")
        if self.rank < 2:
            raise ValueError("rank must be >= 2")

    def __str__(self):
        return f"{self.kind}{self.rank}"

    @property
    def algebra(self) -> str:
        n = self.rank
        return {"B": f"so{2 * n + 1}", "C": f"sp{2 * n}", "D": f"so{2 * n}"}[self.kind]

    @property
    def family(self) -> str:
        """Stable-limit family: so for B/D, sp for C."""
        return "sp" if self.kind == "C" else "so"


def check_dominant(rs: RootSystem, w) -> tuple[int, ...]:
    """w as a dominant weight of rs: a partition of length <= rank or, in
    type D, a mirror weight (full length, w_n < 0, |w_n| <= w_{n-1})."""
    w = tuple(w)
    if rs.kind == "D" and len(w) == rs.rank and w[-1] < 0:
        if w[-1] + w[-2] < 0:
            raise ValueError(f"{w} is not a dominant weight of {rs}")
        return check_partition(w[:-1]) + w[-1:]
    p = check_partition(w)
    if len(p) > rs.rank:
        raise ValueError(f"partition {p} longer than the rank of {rs}")
    return p


@dataclass(frozen=True)
class SignedPermutation:
    """w(eps_j) = -eps_{perm[j]} if j in flips else eps_{perm[j]} (0-based)."""

    perm: tuple[int, ...]
    flips: frozenset[int] = field(default_factory=frozenset)

    def act(self, beta: Weight) -> Weight:
        out = [0] * len(beta)
        for j, b in enumerate(beta):
            out[self.perm[j]] = -b if j in self.flips else b
        return tuple(out)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other, as maps on weights: (self*other).act = self.act o other.act."""
        perm = tuple(self.perm[p] for p in other.perm)
        flips = frozenset(
            k
            for k in range(len(perm))
            if (k in other.flips) != (other.perm[k] in self.flips)
        )
        return SignedPermutation(perm, flips)

    @property
    def sign(self) -> int:
        return _perm_parity(self.perm) * (-1) ** len(self.flips)


def _perm_parity(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            parity = -parity
    return parity


def positive_roots(rs: RootSystem) -> list[Weight]:
    """Positive roots in doubled coordinates, deterministic order."""
    n = rs.rank
    roots: list[Weight] = []

    def vec(pairs) -> Weight:
        v = [0] * n
        for i, c in pairs:
            v[i] = c
        return tuple(v)

    for i in range(n):
        for j in range(i + 1, n):
            roots.append(vec([(i, 2), (j, -2)]))
            roots.append(vec([(i, 2), (j, 2)]))
    if rs.kind == "B":
        roots.extend(vec([(i, 2)]) for i in range(n))
    elif rs.kind == "C":
        roots.extend(vec([(i, 4)]) for i in range(n))
    return roots


@cache
def rho_doubled(rs: RootSystem) -> Weight:
    total = [0] * rs.rank
    for r in positive_roots(rs):
        for i, c in enumerate(r):
            total[i] += c
    assert all(c % 2 == 0 for c in total)
    return tuple(c // 2 for c in total)


def rho(rs: RootSystem) -> tuple:
    """Half-sum of positive roots in plain integer coordinates.

    Raises ValueError when rho is half-integral (type B); use rho_doubled
    there."""
    d = rho_doubled(rs)
    if all(c % 2 == 0 for c in d):
        return tuple(c // 2 for c in d)
    raise ValueError("rho is half-integral; use rho_doubled")


def weyl_order(rs: RootSystem) -> int:
    n = rs.rank
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return fact * 2 ** (n - 1 if rs.kind == "D" else n)


def weyl_iter(rs: RootSystem) -> Iterator[tuple[SignedPermutation, int]]:
    """Stream (w, (-1)^length(w)) over the whole Weyl group."""
    n = rs.rank
    even_only = rs.kind == "D"
    for perm in permutations(range(n)):
        pp = _perm_parity(perm)
        for mask in range(1 << n):
            bits = mask.bit_count()
            if even_only and bits % 2:
                continue
            w = SignedPermutation(
                perm, frozenset(i for i in range(n) if mask >> i & 1)
            )
            yield w, pp * (-1) ** bits


def dot_action(w: SignedPermutation, lam, rs: RootSystem) -> tuple[int, ...]:
    """w o lambda = w(lambda + rho) - rho, in plain integer coordinates."""
    n = rs.rank
    rd = rho_doubled(rs)
    lp = padded(tuple(lam), n)
    v = tuple(2 * a + r for a, r in zip(lp, rd))
    moved = w.act(v)
    out = tuple(m - r for m, r in zip(moved, rd))
    assert all(c % 2 == 0 for c in out)
    return tuple(c // 2 for c in out)


def dominant_dot(rs: RootSystem, beta: Weight) -> tuple[int, tuple[int, ...]]:
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


def exponents(rs: RootSystem) -> list[int]:
    n = rs.rank
    if rs.kind == "D":
        return [2 * i - 1 for i in range(1, n)] + [n - 1]
    return [2 * i - 1 for i in range(1, n + 1)]


def degrees(rs: RootSystem) -> list[int]:
    """Degrees of the free generators of the invariant algebra (m_i + 1)."""
    return [m + 1 for m in exponents(rs)]


def weyl_dim(rs: RootSystem, lam) -> int:
    """dim V(lam) by the Weyl dimension formula (exact rational arithmetic)."""
    from fractions import Fraction

    n = rs.rank
    rd = rho_doubled(rs)
    lp = padded(tuple(lam), n)
    num = tuple(2 * a + r for a, r in zip(lp, rd))
    val = Fraction(1)
    for alpha in positive_roots(rs):
        top = sum(a * b for a, b in zip(num, alpha))
        bot = sum(a * b for a, b in zip(rd, alpha))
        val *= Fraction(top, bot)
    assert val.denominator == 1 and val > 0
    return int(val)
