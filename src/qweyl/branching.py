"""
Littlewood branching coefficients, graded multiplicities of the symmetric
algebra S(g), harmonic characters, the specialisation of universal so/sp
characters to a finite rank, and the conjugation involution phi on them.

This is the second, independent route to K_{lambda,empty}(q): the stable
S^k(g) multiplicities are Littlewood-Richardson sums over even-row /
even-column partitions, and every finite rank reads them through one
specialisation (the modification rules), for S^k(g) and for the
harmonics alike.  The tests check that path against S^k(g) decomposed
from its weight system (a Brauer-Klimyk step: each weight, shifted by
rho, is reflected into the dominant chamber with its sign, and weights
on a wall cancel).

Only the so sums are run: the sp multiplicity of lam is the so one of
its conjugate lam' (the involution phi below; Koike-Terada 1987).
Proof.  Conjugation keeps every LR coefficient, c^{nu'}_{lam',gamma'} =
c^nu_{lam,gamma}, and it swaps the even-row and even-column classes, so
sum over nu even-row, gamma even-column of c^nu_{lam,gamma} (the sp
multiplicity at lam) is, term by term, sum over nu' even-column, gamma'
even-row of c^{nu'}_{lam',gamma'} (the so multiplicity at lam').

The stable sums skip the (k, lam) whose every term is 0.  branching(g,
nu, lam) is 0 unless |nu| - |lam| is even and >= 0, since c^nu_{lam,gamma}
needs |gamma| = |nu| - |lam| and every gamma of either class has even
weight.  The S^k(g) sum runs over nu of weight 2k, so the multiplicity is
0 when |lam| is odd or |lam| > 2k.  The harmonic coefficient at (k, lam)
sums the multiplicities at k - j, so it reads only those with
2(k - j) >= |lam|, and none (it is 0) when |lam| is odd or above 2k.
Sharper, the so sum needs an even-column nu of weight 2k containing lam,
and the least such nu, cl_so(lam), adds one box to each odd-length
column of lam; so the so multiplicity is 0 when 2k < |cl_so(lam)|, and
the sp one, read at the conjugate, when 2k is below |lam| plus the
number of odd parts of lam.
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

from functools import cache

from .lr import lr_coefficient
from .partitions import (
    Partition,
    _conjugate,
    _partitions_in_class,
    check_bound,
    check_partition,
    contains,
    enumerate_partitions,
    weight,
)
from .qseries import QSeries
from .records import Record
from .rootsystems import RootSystem, check_dominant, degrees, diagram_flip

_FAMILIES = ("so", "sp")
# N = 2n + _N_OFFSET[kind] in the modification rules of specialise
_N_OFFSET = {"B": 1, "C": 2, "D": 0}


class CharExpansion(Record):
    """A finite sum of universal (or finite-rank) characters with QSeries
    coefficients: sum over terms of coeff(q) * s_lambda^{basis}."""

    __slots__ = ("basis", "terms", "rank")  # basis: "so" | "sp"

    def __init__(self, basis: str, terms: dict[Partition, QSeries] | None = None,
                 rank: int | None = None):
        if basis not in _FAMILIES:
            raise ValueError(f"unknown basis {basis!r}")
        checked = {}
        for key, c in (terms or {}).items():
            lam = check_partition(key)
            if not isinstance(c, QSeries):
                raise ValueError(f"coefficient of {lam} is not a QSeries: {c!r}")
            if lam in checked:
                raise ValueError(f"two keys normalise to the partition {lam}")
            checked[lam] = c
        self.basis = basis
        self.terms = {lam: c for lam, c in checked.items() if not c.is_zero()}
        self.rank = rank
        if rank is not None:
            for lam in self.terms:
                if len(lam) > rank:
                    raise ValueError(f"partition {lam} too long for rank {rank}")

    def coeff(self, lam: Partition) -> QSeries:
        return self.terms.get(check_partition(lam), QSeries.zero())


def _check_family(family: str, k: int = 0) -> None:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    check_bound(k, "k")


# so-branching sums over even-row gamma, sp over even-column
_GAMMA_CLASS = {"so": "even_rows", "sp": "even_columns"}


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
    for gamma in _partitions_in_class(diff, _GAMMA_CLASS[family]):
        if contains(nu, gamma):
            total += lr_coefficient(lam, gamma, nu)
    return total


def sym_mult_stable(family: str, k: int, lam: Partition) -> int:
    """Stable multiplicity of V(lam) in S^k(g), g of the given family."""
    _check_family(family, k)
    return _sym_mult(family, k, check_partition(lam))


@cache
def _sym_mult(family: str, k: int, lam: Partition) -> int:
    """sym_mult_stable on a known family, k >= 0 and a valid partition.

    The so multiplicity is the Littlewood sum over even-column nu of
    branching("so", nu, lam).  The sp multiplicity at lam is the so one
    at the conjugate lam' (module docstring): conjugation keeps each
    c^nu_{lam,gamma} and swaps even rows with even columns, so the sp sum
    over (nu, gamma) is term for term the so sum at lam'.  Outside the
    support (module docstring) it is 0 before any sum runs: |lam| odd or
    above 2k, or, in the so sum, no even-column nu of weight 2k contains
    lam (`_even_column_closure`)."""
    size = weight(lam)
    if size % 2 or size > 2 * k:
        return 0
    if family == "sp":
        return _sym_mult("so", k, _conjugate(lam))
    if 2 * k < _even_column_closure(lam):
        return 0
    total = 0
    for nu in _partitions_in_class(2 * k, "even_columns"):
        if contains(nu, lam):  # branching("so", nu, lam) is 0 otherwise
            total += branching("so", nu, lam)
    return total


def _even_column_closure(lam: Partition) -> int:
    """|cl_so(lam)|, the weight of the least even-column partition that
    contains lam: |lam| plus the number of odd-length columns of lam.
    Column j has length #{i : lam_i >= j}, which is odd exactly when
    lam_{2i} < j <= lam_{2i-1} for some i, so there are lam_1 - lam_2 +
    lam_3 - ... of them, and the weight is 2 (lam_1 + lam_3 + ...)."""
    return 2 * sum(lam[::2])


def sym_char_stable(family: str, k: int) -> CharExpansion:
    """Universal character of S^k(g) as a CharExpansion at degree k."""
    _check_family(family, k)
    terms: dict[Partition, QSeries] = {}
    for lam in enumerate_partitions(2 * k):
        m = _sym_mult(family, k, lam)
        if m:
            terms[lam] = QSeries.monomial(k, m)
    return CharExpansion(family, terms)


def specialise(expansion: dict[Partition, int], kind: str, n: int) -> dict[tuple[int, ...], int]:
    """Specialise a sum {lam: m} of universal characters (so basis for B
    and D, sp basis for C) to the irreducible characters of the rank-n
    algebra of the given type by the modification rules (Koike-Terada
    1987; King 1971); they hold at every rank n >= 0.  With N = 2n+1,
    2n+2 or 2n (B, C, D), while l(lam) > n the bead at h = 2 l(lam) - N of
    beta_i = lam_i + l(lam) - i moves to 0: no bead at h gives 0, and the
    strip removed, over c = h - #{beta_j < h} columns, has sign (-1)^c for
    sp and (-1)^(c-1) for so.  Keys are partitions without trailing
    zeros; in type D a full-length key stands for itself only, and its
    mirror weight (its diagram flip) is read through it.
    """
    if kind not in _N_OFFSET:
        raise ValueError(f"unknown type {kind!r}")
    check_bound(n, "n")
    checked: dict[Partition, int] = {}
    for lam, m in expansion.items():
        lam = check_partition(lam)
        if type(m) is not int:
            raise ValueError(f"multiplicity of {lam} must be an integer, got {m!r}")
        checked[lam] = checked.get(lam, 0) + m
    return _specialise(checked.items(), kind, n)


def _specialise(pairs, kind: str, n: int) -> dict[tuple[int, ...], int]:
    """specialise on (lam, m) pairs, a known type and n >= 0, the keys
    partitions and the multiplicities integers (the library's callers pass
    Pieri supports and enumerate_partitions shapes), so no key is
    re-checked."""
    N = 2 * n + _N_OFFSET[kind]
    flip = 0 if kind == "C" else 1
    out: dict[tuple[int, ...], int] = {}
    for lam, m in pairs:
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
    return {lam: c for lam, c in out.items() if c}


# -- finite rank: the stable multiplicities specialised -----------------


def sym_decomposition_finite(rs: RootSystem, k: int) -> dict[tuple[int, ...], int]:
    """Decompose S^k(g) into irreducibles of g.

    Keys are highest weights as partitions without trailing zeros.  In
    type D a mirror module V(w), w the diagram flip of a full-length key,
    has the multiplicity of its key and is not listed (sym_mult_finite
    reads it through the flip).
    """
    check_bound(k, "k")
    return _specialise(
        ((lam, _sym_mult(rs.family, k, lam)) for lam in enumerate_partitions(2 * k)),
        rs.kind,
        rs.rank,
    )


def sym_mult_finite(rs: RootSystem, k: int, lam: Partition) -> int:
    """Multiplicity of V(lam) in S^k(g) at finite rank, lam dominant (in
    type D a mirror weight is allowed, read through its flip)."""
    lam = check_dominant(rs, lam)
    if lam and lam[-1] < 0:
        lam = diagram_flip(rs.kind, rs.rank, lam)
    return sym_decomposition_finite(rs, k).get(lam, 0)


# -- harmonic characters ------------------------------------------------


def euler_factor_coeffs(degs: list[int], bound: int) -> dict[int, int]:
    """Coefficients of prod_d (1 - q^d) over the given degrees, up to bound
    (an integer >= 0), as {degree: coefficient}, nonzero ones only."""
    p = QSeries.one(bound)
    for d in degs:
        p = QSeries.combination([(1, 0, p), (-1, d, p)])
    return p.coeffs


def harmonic_coeff_stable(family: str, k: int, lam: Partition) -> int:
    """Coefficient of q^k s_lam in the stable graded character of the
    harmonics: prod_{i>=1}(1 - q^{2i}) * char_q(S(g)).  Term j reads
    S^{k-j}(g) at lam, so only the terms with 2(k - j) >= |lam| are read,
    and none when |lam| is odd or above 2k (module docstring)."""
    _check_family(family, k)
    lam = check_partition(lam)
    size = weight(lam)
    if size % 2:
        return 0
    total = 0
    # the degrees j ascend, and S^{k-j}(g) at lam is 0 once 2(k - j) < |lam|
    for j, c in _stable_euler_factor(k):
        if 2 * (k - j) < size:
            break
        total += c * _sym_mult(family, k - j, lam)
    return total


@cache
def _stable_euler_factor(k: int) -> tuple[tuple[int, int], ...]:
    """The (degree, coefficient) pairs of prod_{i>=1} (1 - q^{2i}) up to q^k."""
    return tuple(euler_factor_coeffs([2 * i for i in range(1, k // 2 + 1)], k).items())


def harmonic_char_finite(rs: RootSystem, k: int) -> CharExpansion:
    """Degree-k part of the graded character of the harmonics H(g),
    expanded on the irreducible characters of g (keys are partitions, as
    in sym_decomposition_finite)."""
    check_bound(k, "k")
    # the Euler factor times the stable S(g) character, specialised once
    stable: dict[Partition, int] = {}
    for j, c in euler_factor_coeffs(degrees(rs), k).items():
        for lam in enumerate_partitions(2 * (k - j)):
            stable[lam] = stable.get(lam, 0) + c * _sym_mult(rs.family, k - j, lam)
    finite = _specialise(stable.items(), rs.kind, rs.rank)
    terms = {lam: QSeries.monomial(k, m) for lam, m in finite.items()}
    return CharExpansion(rs.family, terms, rank=rs.rank)


def phi(expansion: CharExpansion) -> CharExpansion:
    """The involution swapping so and sp bases and conjugating indices."""
    if expansion.rank is not None:
        raise ValueError("phi acts on universal characters (rank must be absent)")
    other = "sp" if expansion.basis == "so" else "so"
    return CharExpansion(
        other, {_conjugate(lam): c for lam, c in expansion.terms.items()}
    )
