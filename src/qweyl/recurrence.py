"""
Morris-type recurrences for the graded multiplicities: the finite-rank
recurrence (rank n reduces to rank n-1 with mu -> mu-flat) and its stable
limits for the so/sp series, plus degree bounds and the dimensions of the
principal-nilpotent filtration.

For mu = empty the stable recurrence is self-referential: the single term
(s=1, r=nu_1, a=0, lambda=nu) carries coefficient q^{nu_1} K_{nu,empty},
so it is moved to the left-hand side, producing a 1/(1-q^{nu_1})
prefactor; every remaining term strictly decreases |lambda|+|lambda-flat|.
"""

__all__ = [
    "RecurrenceFrame",
    "build_frame",
    "k_recurrence_finite",
    "k_limit",
    "degree_bounds",
    "brylinski_dims",
]

from dataclasses import dataclass
from functools import cache
from math import comb

from .partitions import Partition, check_partition, padded, weight
from .pieri import pieri_expand
from .qkostant import k_direct
from .qseries import QSeries
from .rootsystems import RootSystem, check_dominant, dominant_dot

_BASE_RANK = 2
_FAMILIES = ("so", "sp")


@dataclass(frozen=True)
class RecurrenceFrame:
    """The data (p, R_s, gamma(s)) driving one recurrence step."""

    nu: Partition
    mu: Partition
    p: int
    R: tuple[int, ...]  # R[s-1] = nu_s - s - mu_1 + 1
    gammas: tuple[Partition, ...]


def build_frame(nu: Partition, mu: Partition) -> RecurrenceFrame:
    nu, mu = check_partition(nu), check_partition(mu)
    mu1 = mu[0] if mu else 0
    R: list[int] = []
    gammas: list[Partition] = []
    for s in range(1, max(len(nu), 1) + 1):
        nu_s = nu[s - 1] if s <= len(nu) else 0
        r_s = nu_s - s - mu1 + 1
        if r_s < 0:
            break
        R.append(r_s)
        # gamma(s): bump the first s-1 parts, drop part s
        gammas.append(tuple(x + 1 for x in nu[: s - 1]) + nu[s:])
    return RecurrenceFrame(nu, mu, len(R), tuple(R), tuple(gammas))


def _q_exponent(family_is_sp: bool, R_s: int, r: int, a: int) -> int:
    # type C carries q^{r+a}; types B and D carry q^{R_s} for every (r, a)
    return r + a if family_is_sp else R_s


# -- finite-rank Pieri multiplicities -----------------------------------
#
# At large rank the tensor multiplicities in V(gamma) (x) V(l) are the
# stable coefficients p^lambda_{gamma,l}.  When the rank is small enough
# for stable components to reach (or exceed) the maximal length, the
# finite multiplicities differ: type-D components of full length split
# into mirror pairs (last coordinate of either sign), and components that
# are too long fold onto shorter highest weights (or vanish, in type C).
# Rather than hard-coding modification rules we compute the finite
# multiplicities exactly with the Brauer-Klimyk formula
#   V(gamma) (x) V(l) = sum_beta m_{(l)}(beta) sign(w) V(w o (gamma+beta)),
# beta running over the weights of V(l) (all have sum|beta_i| <= l) and
# w moving gamma+beta+rho into the dominant chamber; a weight with
# gamma+beta+rho on a wall contributes nothing (see dominant_dot).  The
# weight multiplicities m_{(l)}(beta) have a closed form (_row_weight_mult),
# so this engine never calls the k_direct oracle outside its base case.


def _row_weight_mult(rs: RootSystem, l: int, beta: tuple[int, ...]) -> int:
    """Multiplicity of the weight beta in the one-row module V((l)).

    V((l)) is S^l of the vector representation in type C and its harmonic
    part S^l - S^{l-2} in types B and D; counting the monomials of weight
    beta, with excess e = l - sum|beta_i|, gives comb(e//2 + k, k).
    """
    e = l - sum(abs(b) for b in beta)
    if e < 0 or (rs.kind != "B" and e % 2):
        return 0
    k = rs.rank - (2 if rs.kind == "D" else 1)
    return comb(e // 2 + k, k)


def _l1_ball(n: int, l: int):
    """Integer vectors of length n with sum |beta_i| <= l."""
    if n == 0:
        yield ()
        return
    for b in range(-l, l + 1):
        for rest in _l1_ball(n - 1, l - abs(b)):
            yield (b,) + rest


def _finite_pieri(rs: RootSystem, gamma: Partition, l: int) -> dict[tuple, int]:
    """Multiplicities of V(gamma) (x) V((l)) at finite rank.

    Keys are dominant weights without trailing zeros; in type D the last
    coordinate of a full-length key may be negative (mirror component).
    """
    margin = rs.rank - (len(gamma) + 1)
    if margin >= (1 if rs.kind == "D" else 0):
        # stable regime: no folding, no mirror components
        return pieri_expand(gamma, l)
    gamma2 = [2 * g for g in padded(gamma, rs.rank)]
    out: dict[tuple, int] = {}
    for beta in _l1_ball(rs.rank, l):
        m = _row_weight_mult(rs, l, beta)
        if not m:
            continue
        sign, lam = dominant_dot(rs, tuple(g + 2 * b for g, b in zip(gamma2, beta)))
        if sign:
            out[lam] = out.get(lam, 0) + sign * m
    return {lam: c for lam, c in out.items() if c}


def _sigma(rs: RootSystem, w: tuple) -> tuple:
    """Type-D diagram automorphism on dominant weights (negate the last
    coordinate when the weight has full length)."""
    if rs.kind == "D" and len(w) == rs.rank and w[-1] != 0:
        return w[:-1] + (-w[-1],)
    return w


@cache
def _k_finite(rs: RootSystem, nu_w: tuple, mu_w: tuple) -> QSeries:
    """Finite recurrence on dominant weights (type-D mirrors allowed)."""
    if nu_w and nu_w[-1] < 0:
        # flip both weights through the diagram automorphism
        return _k_finite(rs, _sigma(rs, nu_w), _sigma(rs, mu_w))
    if rs.rank <= _BASE_RANK:
        return k_direct(rs, nu_w, mu_w)
    sub_rs = RootSystem(rs.kind, rs.rank - 1)
    mu_flat = mu_w[1:]
    is_sp = rs.kind == "C"
    frame = build_frame(nu_w, (mu_w[0],) if mu_w else ())
    total = QSeries.zero()
    for s in range(1, frame.p + 1):
        R_s = frame.R[s - 1]
        gam = frame.gammas[s - 1]
        sign = -1 if s % 2 == 0 else 1
        for a in range(R_s // 2 + 1):
            r = R_s - 2 * a
            shift = _q_exponent(is_sp, R_s, r, a)
            for lam, pc in _finite_pieri(sub_rs, gam, r).items():
                sub = _k_finite(sub_rs, lam, mu_flat)
                if sub:
                    total = total + sub.shift(shift).scale(sign * pc)
    return total


def k_recurrence_finite(rs: RootSystem, nu: Partition, mu: Partition) -> QSeries:
    """K_{nu,mu}(q) at finite rank via the rank-lowering recurrence."""
    return _k_finite(rs, check_dominant(rs, nu), check_dominant(rs, mu))


def k_limit(family: str, nu: Partition, mu: Partition, D: int) -> QSeries:
    """The stable series K_{nu,mu}(q) for the so or sp family, mod q^{D+1}."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if D < 0:
        raise ValueError("D must be >= 0")
    return _k_limit(family, check_partition(nu), check_partition(mu), D)


@cache
def _k_limit(family: str, nu: Partition, mu: Partition, D: int) -> QSeries:
    if not nu and not mu:
        return QSeries.one(D)
    is_sp = family == "sp"
    mu_flat = mu[1:]
    frame = build_frame(nu, mu)
    measure = weight(nu) + weight(nu[1:])
    total = QSeries.zero(D)
    for s in range(1, frame.p + 1):
        R_s = frame.R[s - 1]
        gam = frame.gammas[s - 1]
        sign = -1 if s % 2 == 0 else 1
        for a in range(R_s // 2 + 1):
            r = R_s - 2 * a
            shift = _q_exponent(is_sp, R_s, r, a)
            if shift > D:
                continue
            for lam, pc in pieri_expand(gam, r).items():
                if not mu and s == 1 and a == 0 and lam == nu:
                    continue  # the self-term, moved to the left-hand side
                assert weight(lam) + weight(lam[1:]) < measure, (nu, mu, lam)
                sub = k_limit(family, lam, mu_flat, D)
                if sub:
                    total = total + sub.shift(shift).scale(sign * pc)
    if not mu:
        total = total.div_one_minus_qm(nu[0], D)
    return total


def degree_bounds(rs: RootSystem, nu: Partition, mu: Partition) -> tuple[int, int]:
    """(lower, upper) degree window for a nonzero K_{nu,mu}(q); the upper
    bound is attained with coefficient 1 whenever the polynomial is nonzero."""
    nu, mu = check_partition(nu), check_partition(mu)
    n = rs.rank
    nu_p, mu_p = padded(nu, n), padded(mu, n)
    diff = weight(nu) - weight(mu)
    lower = (diff + 1) // 2
    if rs.kind == "B":
        upper = sum((n - i) * (a - b) for i, (a, b) in enumerate(zip(nu_p, mu_p), 1))
        upper += diff
    elif rs.kind == "C":
        upper = sum(
            (2 * (n - i) + 1) * (a - b) for i, (a, b) in enumerate(zip(nu_p, mu_p), 1)
        ) // 2
    else:
        upper = sum((n - i) * (a - b) for i, (a, b) in enumerate(zip(nu_p, mu_p), 1))
    return lower, upper


def brylinski_dims(rs: RootSystem, lam: Partition, mu: Partition, k: int) -> int:
    """dim of the k-th step of the principal-nilpotent filtration of the
    mu-weight space of V(lam): the partial sum of K-coefficients up to q^k."""
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1:
        return 0
    series = k_direct(rs, lam, mu)
    return sum(c for d, c in series.coeffs.items() if d <= k)
