"""
Littlewood branching coefficients, graded multiplicities of the symmetric
algebra S(g), harmonic characters, the specialisation of universal so/sp
characters to a finite rank, and the conjugation involution phi on them.

This is the second, independent route to K_{lambda,empty}(q): the stable
S^k(g) multiplicities are Littlewood-Richardson sums over even-row /
even-column partitions, and every finite rank reads them through one
specialisation (the modification rules), for S^k(g) and for the
harmonics alike.  Decomposing S^k(g) from its weight system (a
Brauer-Klimyk step: each weight, shifted by rho, is reflected into the
dominant chamber with its sign, and weights on a wall cancel) is kept
as the test oracle of that path, _sym_decomposition_by_weights, which
nothing in the library calls.
"""

__all__ = [
    "CharExpansion",
    "branching",
    "sym_mult_stable",
    "sym_char_stable",
    "specialise",
    "sym_decomposition_finite",
    "sym_mult_finite",
    "harmonic_coeff_stable",
    "harmonic_char_finite",
    "phi",
    "euler_factor_coeffs",
]

from dataclasses import dataclass, field
from functools import cache
from math import comb
from typing import Optional

from .lr import lr_coefficient
from .partitions import (
    Partition,
    check_bound,
    check_partition,
    conjugate,
    contains,
    enumerate_partitions,
    weight,
)
from .qseries import QSeries
from .rootsystems import RootSystem, degrees, dominant_dot, positive_roots

_FAMILIES = ("so", "sp")


@dataclass
class CharExpansion:
    """A finite sum of universal (or finite-rank) characters with QSeries
    coefficients: sum over terms of coeff(q) * s_lambda^{basis}."""

    basis: str  # "gl" | "so" | "sp"
    terms: dict[Partition, QSeries] = field(default_factory=dict)
    rank: Optional[int] = None

    def __post_init__(self):
        if self.basis not in ("gl", "so", "sp"):
            raise ValueError(f"unknown basis {self.basis!r}")
        self.terms = {
            lam: c for lam, c in self.terms.items() if not c.is_zero()
        }
        if self.rank is not None:
            for lam in self.terms:
                if len(lam) > self.rank:
                    raise ValueError(f"partition {lam} too long for rank {self.rank}")

    def coeff(self, lam: Partition) -> QSeries:
        return self.terms.get(check_partition(lam), QSeries.zero())


def _check_family(family: str, k: int = 0) -> None:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    check_bound(k, "k")


# so-branching sums over even-row gamma, sp over even-column
_GAMMA_CLASS = {"so": "even_rows", "sp": "even_columns"}
# stable S(g) multiplicities: nu runs over the conjugate class
_NU_CLASS = {"so": "even_columns", "sp": "even_rows"}


def branching(family: str, nu: Partition, lam: Partition) -> int:
    """Multiplicity of V(lam) in the restriction of the gl-module V(nu)
    to the orthogonal (so) or symplectic (sp) subgroup, stable range.

    c^nu_{lam,gamma} is 0 unless lam and gamma both fit inside nu, so the
    sum skips every other term."""
    _check_family(family)
    nu, lam = check_partition(nu), check_partition(lam)
    diff = weight(nu) - weight(lam)
    if diff < 0 or diff % 2 or not contains(nu, lam):
        return 0
    total = 0
    for gamma in enumerate_partitions(diff, _GAMMA_CLASS[family], exact_weight=diff):
        if contains(nu, gamma):
            total += lr_coefficient(lam, gamma, nu)
    return total


def sym_mult_stable(family: str, k: int, lam: Partition) -> int:
    """Stable multiplicity of V(lam) in S^k(g), g of the given family."""
    _check_family(family, k)
    return _sym_mult(family, k, check_partition(lam))


@cache
def _sym_mult(family: str, k: int, lam: Partition) -> int:
    """sym_mult_stable on a known family, k >= 0 and a valid partition."""
    if weight(lam) > 2 * k:
        return 0
    total = 0
    for nu in enumerate_partitions(2 * k, _NU_CLASS[family], exact_weight=2 * k):
        if contains(nu, lam):  # branching(family, nu, lam) is 0 otherwise
            total += branching(family, nu, lam)
    return total


def sym_char_stable(family: str, k: int) -> CharExpansion:
    """Universal character of S^k(g) as a CharExpansion at degree k."""
    _check_family(family, k)
    terms: dict[Partition, QSeries] = {}
    for lam in enumerate_partitions(2 * k):
        m = _sym_mult(family, k, lam)
        if m:
            terms[lam] = QSeries.monomial(k, m)
    return CharExpansion(family, terms)


def specialise(expansion: dict[Partition, int], rs: RootSystem) -> dict[tuple[int, ...], int]:
    """Specialise a sum {lam: m} of universal characters (so basis for B
    and D, sp basis for C) to the irreducible characters of rs by the
    modification rules (Koike-Terada 1987; King 1971).  With N = 2n+1,
    2n+2 or 2n (B, C, D), while l(lam) > n the bead at h = 2 l(lam) - N of
    beta_i = lam_i + l(lam) - i moves to 0: no bead at h gives 0, and the
    strip removed, over c = h - #{beta_j < h} columns, has sign (-1)^c for
    sp and (-1)^(c-1) for so.  Keys follow sym_decomposition_finite: no
    trailing zeros, and in type D a key of length n adds its mirror key.
    """
    n = rs.rank
    N = 2 * n + {"B": 1, "C": 2, "D": 0}[rs.kind]
    flip = 0 if rs.kind == "C" else 1
    out: dict[tuple[int, ...], int] = {}
    for lam, m in expansion.items():
        lam = check_partition(lam)
        while m and len(lam) > n:
            l, h = len(lam), 2 * len(lam) - N
            beta = [p + l - i for i, p in enumerate(lam, 1)]
            if h not in beta:
                m = 0
                break
            if (h - sum(b < h for b in beta) + flip) % 2:
                m = -m
            beta = sorted([b for b in beta if b != h] + [0], reverse=True)
            lam = tuple(p for p in (b - l + i for i, b in enumerate(beta, 1)) if p)
        out[lam] = out.get(lam, 0) + m
        if rs.kind == "D" and len(lam) == n:
            mirror = lam[:-1] + (-lam[-1],)
            out[mirror] = out.get(mirror, 0) + m
    return {lam: c for lam, c in out.items() if c}


# -- finite rank: the stable multiplicities specialised -----------------


def sym_decomposition_finite(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """Decompose S^k(g) into irreducibles of g.

    Keys are highest weights as integer tuples without trailing zeros;
    in type D the last coordinate may be negative (mirror modules).
    """
    # a fresh dict per call, so a caller cannot corrupt the memo
    return dict(_sym_decomposition(rs, check_bound(k, "k")))


@cache
def _sym_decomposition(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """sym_decomposition_finite on an integer k >= 0."""
    return specialise(
        {lam: _sym_mult(rs.family, k, lam) for lam in enumerate_partitions(2 * k)}, rs
    )


def _sym_decomposition_by_weights(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """Test oracle for sym_decomposition_finite: S^k(g) decomposed from its
    weight system (doubled coordinates), with no stable multiplicity."""
    n = rs.rank
    zero = (0,) * n
    # degree -> weight -> multiplicity, from the root vectors only
    layers: list[dict[tuple[int, ...], int]] = [{zero: 1}] + [{} for _ in range(k)]
    all_roots = []
    for r in positive_roots(rs):
        all_roots.append(r)
        all_roots.append(tuple(-c for c in r))
    for alpha in all_roots:
        for d in range(k, 0, -1):
            for j in range(1, d + 1):
                shift = tuple(j * c for c in alpha)
                for w, m in layers[d - j].items():
                    key = tuple(a + b for a, b in zip(w, shift))
                    layers[d][key] = layers[d].get(key, 0) + m
    # Cartan part: n commuting weight-zero generators, C(n + j - 1, j) in degree j
    weights: dict[tuple[int, ...], int] = {}
    for j in range(k + 1):
        c = comb(n + j - 1, j)
        for w, m in layers[k - j].items():
            weights[w] = weights.get(w, 0) + c * m
    # Brauer-Klimyk with V(0): each weight wt of multiplicity m adds
    # sign(w) m V(w o wt); weights with wt + rho on a wall add nothing
    out: dict[tuple[int, ...], int] = {}
    for wt, m in weights.items():
        sign, lam = dominant_dot(rs, wt)
        if sign:
            out[lam] = out.get(lam, 0) + sign * m
    return {lam: c for lam, c in out.items() if c}


def sym_mult_finite(rs: RootSystem, k: int, lam: Partition) -> int:
    """Multiplicity of V(lam) in S^k(g) at finite rank."""
    check_bound(k, "k")
    lam = check_partition(lam)
    if len(lam) > rs.rank:
        raise ValueError("partition longer than the rank")
    return sym_decomposition_finite(rs, k).get(lam, 0)


# -- harmonic characters ------------------------------------------------


def euler_factor_coeffs(degs: list[int], bound: int) -> dict[int, int]:
    """Coefficients of prod_d (1 - q^d) over the given degrees, up to bound."""
    cc = {0: 1}
    for d in degs:
        if d > bound:
            continue
        nxt = dict(cc)
        for e, c in cc.items():
            if e + d <= bound:
                nxt[e + d] = nxt.get(e + d, 0) - c
        cc = {e: c for e, c in nxt.items() if c}
    return cc


def harmonic_coeff_stable(family: str, k: int, lam: Partition) -> int:
    """Coefficient of q^k s_lam in the stable graded character of the
    harmonics: prod_{i>=1}(1 - q^{2i}) * char_q(S(g))."""
    _check_family(family, k)
    lam = check_partition(lam)
    eps = euler_factor_coeffs([2 * i for i in range(1, k // 2 + 1)], k)
    return sum(c * _sym_mult(family, k - j, lam) for j, c in eps.items())


def harmonic_char_finite(rs: RootSystem, k: int) -> CharExpansion:
    """Degree-k part of the graded character of the harmonics H(g),
    expanded on the irreducible characters of g."""
    check_bound(k, "k")
    # the Euler factor times the stable S(g) character, specialised once
    stable: dict[Partition, int] = {}
    for j, c in euler_factor_coeffs(degrees(rs), k).items():
        for lam in enumerate_partitions(2 * (k - j)):
            stable[lam] = stable.get(lam, 0) + c * _sym_mult(rs.family, k - j, lam)
    terms = {
        lam: QSeries.monomial(k, m)
        for lam, m in specialise(stable, rs).items()
        # type D mirror modules are tracked by their partner
        if not (lam and lam[-1] < 0)
    }
    return CharExpansion(rs.family, terms, rank=rs.rank)


def phi(expansion: CharExpansion) -> CharExpansion:
    """The involution swapping so and sp bases and conjugating indices."""
    if expansion.basis not in _FAMILIES:
        raise ValueError("phi is defined on so/sp expansions only")
    if expansion.rank is not None:
        raise ValueError("phi acts on universal characters (rank must be absent)")
    other = "sp" if expansion.basis == "so" else "so"
    return CharExpansion(
        other, {conjugate(lam): c for lam, c in expansion.terms.items()}
    )
