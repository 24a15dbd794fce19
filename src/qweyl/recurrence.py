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

from .branching import specialise
from .partitions import Partition, check_bound, check_partition, padded, weight
from .pieri import pieri_expand
from .qkostant import k_direct
from .qseries import QSeries
from .rootsystems import RootSystem, check_dominant

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
    return _frame(check_partition(nu), check_partition(mu))


def _frame(nu: Partition, mu: Partition) -> RecurrenceFrame:
    """build_frame on partitions that are already valid."""
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


def _finite_pieri(rs: RootSystem, gamma: Partition, l: int) -> dict[tuple, int]:
    """V(gamma) (x) V((l)) at finite rank: pieri_expand(gamma, l) specialised
    to rs.  Keys are dominant weights without trailing zeros; in type D a
    full-length key may have a negative last coordinate (mirror component).

    In type D with l(gamma) = n, [gamma] of O(2n) restricts to V(gamma) +
    V(gamma-bar), so the specialisation is S = X + sigma(X) for the wanted
    X.  As ch(lam) - ch(lam-bar) = E ch^C(lam - 1^n), E = prod(x_i - 1/x_i),
    and V((l)) = ch^C(l) - ch^C(l-2), X - sigma(X) is read off the C_n
    products of gamma - 1^n.
    """
    out = specialise(pieri_expand(gamma, l), rs)
    n = rs.rank
    if rs.kind != "D" or len(gamma) < n:
        return out
    low, c_n = tuple(g - 1 for g in gamma), RootSystem("C", n)
    diff = specialise(pieri_expand(low, l), c_n)
    if l >= 2:
        for kappa, m in specialise(pieri_expand(low, l - 2), c_n).items():
            diff[kappa] = diff.get(kappa, 0) - m
    for kappa, m in diff.items():
        lam = tuple(k + 1 for k in padded(kappa, n))
        out[lam] = out.get(lam, 0) + m
        out[_sigma(rs, lam)] = out.get(_sigma(rs, lam), 0) - m
    assert all(c % 2 == 0 for c in out.values()), (rs, gamma, l)
    return {lam: c // 2 for lam, c in out.items() if c}


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
    frame = _frame(nu_w, (mu_w[0],) if mu_w else ())
    terms = []  # (factor, shift, K_{lam, mu-flat}) of the recurrence step
    for s in range(1, frame.p + 1):
        R_s = frame.R[s - 1]
        gam = frame.gammas[s - 1]
        sign = -1 if s % 2 == 0 else 1
        for a in range(R_s // 2 + 1):
            r = R_s - 2 * a
            shift = _q_exponent(is_sp, R_s, r, a)
            for lam, pc in _finite_pieri(sub_rs, gam, r).items():
                terms.append((sign * pc, shift, _k_finite(sub_rs, lam, mu_flat)))
    return QSeries.combination(terms)


def k_recurrence_finite(rs: RootSystem, nu: Partition, mu: Partition) -> QSeries:
    """K_{nu,mu}(q) at finite rank via the rank-lowering recurrence."""
    return _k_finite(rs, check_dominant(rs, nu), check_dominant(rs, mu))


def k_limit(family: str, nu: Partition, mu: Partition, D: int) -> QSeries:
    """The stable series K_{nu,mu}(q) for the so or sp family, mod q^{D+1}."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    check_bound(D, "D")
    return _k_limit(family, check_partition(nu), check_partition(mu), D)


@cache
def _k_limit(family: str, nu: Partition, mu: Partition, D: int) -> QSeries:
    """k_limit on valid partitions; the recursion stays inside this body."""
    if not nu and not mu:
        return QSeries.one(D)
    mu_flat = mu[1:]
    total = QSeries.combination(
        [
            (factor, shift, _k_limit(family, lam, mu_flat, D))
            for factor, shift, lam in _morris_step(family, nu, mu[0] if mu else 0)
            if shift <= D
        ],
        D,
    )
    if not mu:
        total = total.div_one_minus_qm(nu[0], D)
    return total


@cache
def _morris_step(family: str, nu: Partition, mu1: int) -> tuple[tuple[int, int, Partition], ...]:
    """The terms (factor, shift, lam) of the stable step for K_{nu,mu}, at
    every shift: K_{nu,mu} = sum factor q^shift K_{lam, mu-flat}.  The step
    depends on mu only through mu_1 (0 for mu = empty), so one table serves
    every mu with that first part and every truncation D."""
    is_sp = family == "sp"
    frame = _frame(nu, (mu1,) if mu1 else ())
    measure = weight(nu) + weight(nu[1:])
    terms = []
    for s in range(1, frame.p + 1):
        R_s = frame.R[s - 1]
        gam = frame.gammas[s - 1]
        sign = -1 if s % 2 == 0 else 1
        for a in range(R_s // 2 + 1):
            r = R_s - 2 * a
            shift = _q_exponent(is_sp, R_s, r, a)
            for lam, pc in pieri_expand(gam, r).items():
                if not mu1 and s == 1 and a == 0 and lam == nu:
                    continue  # the self-term, moved to the left-hand side
                assert weight(lam) + weight(lam[1:]) < measure, (nu, mu1, lam)
                terms.append((sign * pc, shift, lam))
    return tuple(terms)


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
    check_bound(k, "k", -1)
    series = k_direct(rs, lam, mu)
    return sum(c for d, c in series.coeffs.items() if d <= k)
