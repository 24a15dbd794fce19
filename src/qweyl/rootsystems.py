"""
Root-system data for the classical types B_n, C_n, D_n and one walk over
their Weyl groups of signed permutations, pruned to the terms of a
Kostant alternating sum that can be nonzero, each with its sign.

All weights are kept in doubled coordinates (the stored vector is 2*beta),
so the half-integral rho of type B stays exact.  Weights that face the
caller (partitions, w o lambda - mu) are converted back to plain integers.
"""

__all__ = [
    "RootSystem",
    "check_dominant",
    "diagram_flip",
    "SignedPermutation",
    "positive_roots",
    "rho",
    "rho_doubled",
    "weyl_iter",
    "weyl_order",
    "dot_action",
    "degrees",
    "exponents",
    "weyl_dim",
]

from collections.abc import Iterator
from functools import cache

from .partitions import check_bound, check_partition, integral_parts, padded
from .records import FrozenRecord

Weight = tuple[int, ...]  # doubled coordinates


class RootSystem(FrozenRecord):
    __slots__ = ("kind", "rank")  # kind: "B" | "C" | "D"

    def __init__(self, kind: str, rank: int):
        if kind not in ("B", "C", "D"):
            raise ValueError(f"unknown type {kind!r}")
        check_bound(rank, "rank", 2)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)

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


def diagram_flip(kind: str, n: int, w: tuple) -> tuple:
    """The type-D diagram automorphism on dominant weights of rank n >= 0
    (ranks 0 and 1 have no RootSystem): negate the last coordinate of a
    full-length weight.  Other weights, and types B and C, are fixed."""
    if kind == "D" and w and len(w) == n:
        return w[:-1] + (-w[-1],)
    return w


def check_dominant(rs: RootSystem, w) -> tuple[int, ...]:
    """w as a dominant weight of rs: a partition of length <= rank or, in
    type D, a mirror weight (full length, w_n < 0), the diagram flip of a
    partition.  Memoised on (kind, rank, tuple(w)) like check_partition."""
    return _checked_dominant(rs.kind, rs.rank, tuple(w))


@cache
def _checked_dominant(kind: str, rank: int, w) -> tuple[int, ...]:
    w = integral_parts(w)
    if kind == "D" and len(w) == rank and w[-1] < 0:
        try:
            check_partition(diagram_flip(kind, rank, w))
        except ValueError:
            raise ValueError(f"{w} is not a dominant weight of {kind}{rank}") from None
        return w
    p = check_partition(w)
    if len(p) > rank:
        raise ValueError(f"partition {p} longer than the rank of {kind}{rank}")
    return p


class SignedPermutation(FrozenRecord):
    """w(eps_j) = -eps_{perm[j]} if j in flips else eps_{perm[j]} (0-based)."""

    __slots__ = ("perm", "flips")

    def __init__(self, perm: tuple[int, ...], flips: frozenset[int] = frozenset()):
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "flips", flips)

    def act(self, beta: Weight) -> Weight:
        out = [0] * len(beta)
        for j, b in enumerate(beta):
            out[self.perm[j]] = -b if j in self.flips else b
        return tuple(out)


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
    """2 rho, the sum of the positive roots: 2n-1, 2n-3, ..., 1 (B),
    2n, 2n-2, ..., 2 (C) or 2n-2, 2n-4, ..., 0 (D).  Coordinate i (from 0)
    gets 1 from each of the 2(n-1-i) roots e_i -+ e_j (j > i), while
    e_j - e_i and e_j + e_i (j < i) cancel; B adds 1 for e_i and C adds 2
    for 2e_i."""
    n = rs.rank
    top = {"B": 2 * n - 1, "C": 2 * n, "D": 2 * n - 2}[rs.kind]
    return tuple(range(top, top - 2 * n, -2))


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


def weyl_iter(rs: RootSystem, lam, mu) -> Iterator[tuple[SignedPermutation, int]]:
    """Stream (w, sign(w)) over the w of the Weyl group for which
    P_q(w o lam - mu) can be nonzero, lam and mu in plain coordinates.

    w is built one output coordinate at a time: position i gets +-v_j for
    an unused j, v = lam + rho.  Type D flips an even number of signs, so
    the sign at the last position is forced.  sign(w) = (-1)^length(w)
    rides along: taking v_j passes one inversion per still-free index
    below j, and a flip is one more factor -1.  A prefix is abandoned as
    soon as a prefix sum of w(lam + rho) - (mu + rho) goes negative: w o
    lam - mu then lies outside the positive cone, where P_q vanishes.
    What is left covers the Weyl alternation set.  When lam + rho has a
    zero coordinate (type D, lam_n = 0), its two signs are two distinct
    elements, and both are yielded.
    """
    n = rs.rank
    even_flips = rs.kind == "D"
    rd = rho_doubled(rs)
    v = [2 * a + r for a, r in zip(padded(tuple(lam), n), rd)]
    t = [2 * b + r for b, r in zip(padded(tuple(mu), n), rd)]
    perm = [0] * n
    used = [False] * n

    def build(i, flips, sign, excess):
        if i == n:
            yield SignedPermutation(tuple(perm), frozenset(flips)), sign
            return
        signs = (1, -1)
        if even_flips and i == n - 1:
            signs = (-1,) if len(flips) % 2 else (1,)
        step = sign  # sign times (-1)^(free indices below j)
        for j in range(n):
            if used[j]:
                continue
            used[j] = True
            perm[j] = i
            for s in signs:
                ahead = excess + s * v[j] - t[i]
                if ahead >= 0:
                    yield from build(i + 1, flips + (j,) if s < 0 else flips, s * step, ahead)
            used[j] = False
            step = -step

    yield from build(0, (), 1, 0)


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


def exponents(rs: RootSystem) -> list[int]:
    n = rs.rank
    if rs.kind == "D":
        return [2 * i - 1 for i in range(1, n)] + [n - 1]
    return [2 * i - 1 for i in range(1, n + 1)]


def degrees(rs: RootSystem) -> list[int]:
    """Degrees of the free generators of the invariant algebra (m_i + 1)."""
    return [m + 1 for m in exponents(rs)]


def weyl_dim(rs: RootSystem, lam) -> int:
    """dim V(lam) by the Weyl dimension formula, the product over the
    positive roots alpha of <lam + rho, alpha> / <rho, alpha>, in exact
    integers.

    With v = 2(lam + rho) and r = 2 rho, the pair e_i - e_j, e_i + e_j
    (i < j) gives (v_i^2 - v_j^2) / (r_i^2 - r_j^2), and e_i (B) or 2e_i
    (C) gives v_i / r_i.  Past l(lam), v equals r, so every factor whose
    indices all lie there is 1 and is skipped."""
    lam = check_dominant(rs, lam)
    n = rs.rank
    rd = rho_doubled(rs)
    v = [2 * a + r for a, r in zip(padded(lam, n), rd)]
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, n):
            num *= v[i] * v[i] - v[j] * v[j]
            den *= rd[i] * rd[i] - rd[j] * rd[j]
        if rs.kind != "D":
            num *= v[i]
            den *= rd[i]
    dim, rem = divmod(num, den)
    assert not rem and dim > 0
    return dim
