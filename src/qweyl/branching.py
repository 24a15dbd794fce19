"""
Littlewood branching coefficients, graded multiplicities of the symmetric
algebra S(g), harmonic characters, and the conjugation involution phi on
universal so/sp characters.

This is the second, independent route to K_{lambda,empty}(q): the finite
harmonic character is obtained by decomposing S^a(g) directly from its
weight system (a Brauer-Klimyk step: each weight, shifted by rho, is
reflected into the dominant chamber with its sign, and weights on a
wall cancel), while the stable route goes through Littlewood-Richardson
sums over even-row / even-column partitions.
"""

__all__ = [
    "CharExpansion",
    "branching",
    "sym_mult_stable",
    "sym_char_stable",
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


# -- finite rank: decompose S^k(g) from its weight system ---------------


def _binom_multiset(n: int, j: int) -> int:
    return comb(n + j - 1, j)


def _sym_power_weight_system(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """Weights (doubled coordinates) of S^k(g) with multiplicities."""
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
    # Cartan part: n commuting weight-zero generators
    out: dict[tuple[int, ...], int] = {}
    for j in range(k + 1):
        c = _binom_multiset(n, j)
        for w, m in layers[k - j].items():
            out[w] = out.get(w, 0) + c * m
    return out


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
    # Brauer-Klimyk with V(0): each weight wt of multiplicity m adds
    # sign(w) m V(w o wt); weights with wt + rho on a wall add nothing
    out: dict[tuple[int, ...], int] = {}
    for wt, m in _sym_power_weight_system(rs, k).items():
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
    eta = euler_factor_coeffs(degrees(rs), k)
    acc: dict[Partition, int] = {}
    for j, c in eta.items():
        for lam, m in sym_decomposition_finite(rs, k - j).items():
            if lam and lam[-1] < 0:
                continue  # type D mirror modules are tracked by their partner
            acc[lam] = acc.get(lam, 0) + c * m
    terms = {
        lam: QSeries.monomial(k, m) for lam, m in acc.items() if m
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
