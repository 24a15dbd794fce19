"""
Morris-type recurrences for the graded multiplicities: the finite-rank
recurrence (rank n reduces to rank n-1 with mu -> mu-flat, down to the
trivial algebra at rank 0) and its stable limits for the so/sp series,
plus degree bounds and the dimensions of the principal-nilpotent
filtration.  Both recurrences run over one Morris step, `_step`.

For mu = empty the stable recurrence is self-referential: the single term
(s=1, r=nu_1, a=0, lambda=nu) carries coefficient q^{nu_1} K_{nu,empty},
so it is moved to the left-hand side, producing a 1/(1-q^{nu_1})
prefactor; every remaining term strictly decreases |lambda|+|lambda-flat|.

A stable step skips the children that are provably zero modulo q^{D+1}.
Two facts about the stable K_{lam,mu}(q) allow it: it is 0 when
|lam| < |mu|, and its lowest degree is at least (|lam| - |mu|)/2 (the
degree bound of Lusztig 1983, carried to the universal characters by
Koike-Terada 1987; the K-matrix's support and the range of
hall_littlewood.qprime_expansion rest on the same two facts).  So the
term q^shift K_{lam, mu-flat} is skipped when |lam| < |mu-flat| or
2 shift + |lam| - |mu-flat| > 2D; a skipped child is never looked up or
memoised.

The stable recurrence sums packed integers, the Kronecker packing of
qweyl.qseries with slots of _WIDTH bits: a step adds
factor * child << (w shift), and the cut mod q^{D+1} is a mask read as a
balanced residue (`_fit` proves when the width suffices).  The memo values
are pooled: each distinct value is decoded into one QSeries once, with
its largest coefficient, l1 norm and lowest degree (`_pooled`), and equal
step terms are one tuple, so callers must not mutate a returned QSeries.

The two families share one step: `_step` gives both the same terms
(sign, gamma(s), r), hence the same Pieri expansions and children, and
only the shift differs, R_s for so (types B and D) and r + a for sp
(type C).  `_step` writes both shifts, as one pair per term, and every
caller reads the one of its family; so `_morris_step` is keyed by
(nu, mu_1) alone, and nothing else passes between the two families.

The finite recurrence answers 0, without a step, for every key whose
nu - mu is off the positive root cone Q+, by rootsystems._off_cone, the
one test of Q+ (exact in types B, C and D, with its proof), which the
P_q table of qweyl.qkostant reads too.  Such a key is memoised, but
nothing under it is.
"""

__all__ = [
    "k_recurrence_finite",
    "k_limit",
    "degree_bounds",
    "brylinski_dims",
]

from functools import cache

from .branching import _check_family, _specialise
from .partitions import Partition, check_bound, check_partition, padded, weight
from .pieri import _pieri_support, pieri_expand
from .qseries import QSeries, _low_slots, _pack, _unpack_signed
from .rootsystems import RootSystem, _off_cone, check_dominant, diagram_flip, rho_doubled


def _step(nu: tuple, mu1: int):
    """The terms (sign, shifts, gamma(s), r) of one Morris step for
    K_{nu,mu} with mu_1 = mu1, one per (s, a): R_s = nu_s - s - mu1 + 1
    >= 0, gamma(s) bumps the first s-1 parts of nu and drops part s,
    r = R_s - 2a, and shifts = (R_s, r + a), the shift of types B and D
    (the so family) and that of type C (sp)."""
    for s in range(1, max(len(nu), 1) + 1):
        R_s = (nu[s - 1] if nu else 0) - s - mu1 + 1
        if R_s < 0:
            return
        sign = -1 if s % 2 == 0 else 1
        gamma = tuple(x + 1 for x in nu[: s - 1]) + nu[s:]
        for a in range(R_s // 2 + 1):
            r = R_s - 2 * a
            yield sign, (R_s, r + a), gamma, r


@cache
def _finite_pieri(kind: str, n: int, gamma: Partition, l: int) -> tuple[tuple[tuple, int], ...]:
    """V(gamma) (x) V((l)) at rank n of the given type: pieri_expand(gamma, l)
    specialised, as (weight, multiplicity) pairs; gamma is a valid
    partition, so its Pieri memo `_pieri_support` is read directly.
    Weights are dominant and without trailing zeros; in type D a
    full-length weight may have a negative last coordinate (mirror
    component).  The result is a tuple, so a caller cannot edit the memo.

    In type D a full-length key of the specialisation is the restriction
    of an O(2n) character, V(lam) + V(lam-bar), so its mirror key is added.
    With l(gamma) = n > 0, [gamma] of O(2n) restricts to V(gamma)
    + V(gamma-bar), so the specialisation is S = X + sigma(X) for the wanted
    X, sigma the diagram flip.  As ch(lam) - ch(lam-bar) = E ch^C(lam - 1^n),
    E = prod(x_i - 1/x_i), and V((l)) = ch^C(l) - ch^C(l-2), X - sigma(X)
    is read off the memoised C_n products of gamma - 1^n.
    """
    out = _specialise(_pieri_support(gamma, l), kind, n)
    if kind != "D":
        return tuple(out.items())
    out.update({diagram_flip(kind, n, lam): m for lam, m in out.items()})
    if not gamma or len(gamma) < n:
        return tuple(out.items())
    low = tuple(g - 1 for g in gamma if g > 1)
    diff = dict(_finite_pieri("C", n, low, l))
    if l >= 2:
        for kappa, m in _finite_pieri("C", n, low, l - 2):
            diff[kappa] = diff.get(kappa, 0) - m
    for kappa, m in diff.items():
        lam = tuple(k + 1 for k in padded(kappa, n))
        out[lam] = out.get(lam, 0) + m
        mirror = diagram_flip(kind, n, lam)
        out[mirror] = out.get(mirror, 0) - m
    assert all(c % 2 == 0 for c in out.values()), (kind, n, gamma, l)
    return tuple((lam, c // 2) for lam, c in out.items() if c)


# the value of every key `_off_cone` answers; callers do not mutate it
_ZERO = QSeries.zero()


@cache
def _k_finite(kind: str, n: int, nu_w: tuple, mu_w: tuple) -> QSeries:
    """Finite recurrence on dominant weights (type-D mirrors allowed); at
    rank 0 both weights are empty and K = 1.  A key off the positive root
    cone (`_off_cone`, tested after the type-D mirror flip) is 0 at once:
    no step is built and no child is looked up."""
    if not n:
        return QSeries.one()
    if nu_w and nu_w[-1] < 0:
        return _k_finite(kind, n, diagram_flip(kind, n, nu_w), diagram_flip(kind, n, mu_w))
    if _off_cone(kind, n, nu_w, mu_w):
        return _ZERO
    # a loop in this frame, not a generator passed to combination, so that
    # the descent costs one stack frame per rank
    mu_flat = mu_w[1:]
    terms = []
    for sign, shifts, gamma, r in _step(nu_w, mu_w[0] if mu_w else 0):
        for lam, pc in _finite_pieri(kind, n - 1, gamma, r):
            terms.append((sign * pc, shifts[kind == "C"], _k_finite(kind, n - 1, lam, mu_flat)))
    return QSeries.combination(terms)


# Ranks one call of _k_finite may descend.  Each rank costs it two
# interpreter frames (the body and its cache), a type-D mirror key two
# more, so a span of 200 stays inside the default recursion limit of 1000.
_SPAN = 200


def k_recurrence_finite(rs: RootSystem, nu: Partition, mu: Partition) -> QSeries:
    """K_{nu,mu}(q) at finite rank via the rank-lowering recurrence.

    The memo is filled from below first, so that no call of _k_finite
    descends more than _SPAN ranks: the keys of every rank are collected
    top-down, and _k_finite runs on those of every _SPAN-th rank under n,
    the lowest rank first.  Up to _SPAN ranks there is no such rank, and
    the pass is empty.  A key off the positive root cone is not expanded,
    as _k_finite builds no step for it, so the pass memoises exactly the
    keys of plain recursion."""
    kind, n = rs.kind, rs.rank
    nu, mu = check_dominant(rs, nu), check_dominant(rs, mu)
    # keys: those of rank m, down to the lowest boundary, in (0, _SPAN]
    # (n itself for n <= _SPAN); levels: the keys of every _SPAN-th rank
    # under n, the lowest rank last
    lowest = (n - 1) % _SPAN + 1
    keys, levels, m = {(nu, mu)}, [], n
    while m > lowest:
        children = set()
        for nu_w, mu_w in keys:
            if nu_w and nu_w[-1] < 0:
                nu_w, mu_w = diagram_flip(kind, m, nu_w), diagram_flip(kind, m, mu_w)
            if _off_cone(kind, m, nu_w, mu_w):
                continue
            for _, _, gamma, r in _step(nu_w, mu_w[0] if mu_w else 0):
                for lam, _ in _finite_pieri(kind, m - 1, gamma, r):
                    children.add((lam, mu_w[1:]))
        keys, m = children, m - 1
        if (n - m) % _SPAN == 0:
            levels.append((m, keys))
    while levels:
        m, level = levels.pop()
        for nu_w, mu_w in level:
            _k_finite(kind, m, nu_w, mu_w)
    return _k_finite(kind, n, nu, mu)


def k_limit(family: str, nu: Partition, mu: Partition, D: int) -> QSeries:
    """The stable series K_{nu,mu}(q) for the so or sp family, mod q^{D+1}."""
    _check_family(family)
    check_bound(D, "D")
    return _k_limit(family, check_partition(nu), check_partition(mu), D)[4]


# Slot width, in bits, of the packed stable values; `_fit` says when it
# suffices, and raises when it might not.
_WIDTH = 64


@cache
def _k_limit(family: str, nu: Partition, mu: Partition,
             D: int) -> tuple[int, int, int, int, QSeries]:
    """k_limit on valid partitions, as its pooled entry of `_pooled`; the
    recursion stays inside this body and sums packed integers."""
    if not nu and not mu:
        return _pooled(1, D)
    mu_flat = mu[1:]
    low = weight(mu_flat)
    # the pruning rule of the module docstring; it drops every shift > D too
    high = 2 * D + low
    width = _WIDTH
    total = bound = 0
    is_sp = family == "sp"
    for factor, magnitude, shifts, lam, size in _morris_step(nu, mu[0] if mu else 0):
        shift = shifts[is_sp]
        if low <= size <= high - 2 * shift:
            child, top, _, _, _ = _k_limit(family, lam, mu_flat, D)
            if child:
                total += factor * child << width * shift
                bound += magnitude * top
    packed = _fit(total, bound, D)
    if not mu:
        # the quotient is exact, so its largest coefficient is its bound
        series = QSeries._trusted(_unpack_signed(packed, width), D).div_one_minus_qm(nu[0], D)
        top = max(map(abs, series.coeffs.values()), default=0)
        packed = _fit(_pack(series.coeffs.items(), width), top, D)
    return _pooled(packed, D)


def _fit(packed: int, bound: int, D: int) -> int:
    """packed mod q^{D+1}, in D + 1 balanced slots of _WIDTH bits, given
    that each coefficient of packed up to q^D is at most `bound` in
    absolute value.

    Proof.  Sums and products of packed integers are exact integer
    arithmetic, so packed is sum c_d 2^(d w) for the true coefficients
    c_d of the polynomial it stands for, however large they are.  If
    bound < 2^(w-1), every c_d with d <= D has |c_d| < 2^(w-1), and then
    qseries._low_slots returns sum_{d <= D} c_d 2^(d w) exactly, and
    qseries._unpack_signed reads each c_d back.  The callers' bounds:
    - a Morris step sums factor q^shift K_child, whose coefficients are
      at most max|K_child| (the exact value each pooled entry keeps), so
      sum |factor| max|K_child| bounds the sum;
    - the quotient by 1 - q^m is an exact QSeries, so its own largest
      coefficient is handed;
    - the P-basis scatter subtracts K[lam,kappa] inv[kappa,mu] from delta,
      and each coefficient of a product is at most l1(K[lam,kappa])
      max|inv[kappa,mu]|, l1 the sum of the |coefficients|.  A product
      whose factors' lowest degrees sum to more than D is 0 mod q^{D+1};
      the scatter leaves it out of the sum and of the bound alike, so
      the bound covers every product that is summed.
    If bound reaches 2^(w-1), a slot could wrap into the next, so this
    raises OverflowError and no value is returned.  At w = 64 this is far
    off: the largest coefficient of k_matrix("so", 16, 10) has 13 bits,
    and the largest bound handed here on the way 16 bits.  A long row
    reaches it: k_limit("sp", (700,), (), 800) raises at a step whose
    summed bound passes 2^63, although no coefficient of the value has
    more than 45 bits.
    """
    width = _WIDTH
    if bound >> (width - 1):
        raise OverflowError(f"coefficient bound {bound} does not fit a {width}-bit slot")
    return _low_slots(packed, width, D + 1)


# The pool behind the stable memos.  Most _k_limit entries repeat one of a
# few distinct series (a quarter of them are zero), so each distinct value
# is stored and decoded once.


@cache
def _pooled(packed: int, D: int) -> tuple[int, int, int, int, QSeries]:
    """The one entry of a stable value mod q^{D+1}, packed as `_fit`
    leaves it: (packed, max |coefficient|, l1 = sum of the |coefficients|,
    lowest degree, QSeries), the lowest degree of 0 being D + 1 (no term
    up to q^D).  Each distinct value is decoded and measured here once,
    and every memo entry equal to it is this tuple."""
    coeffs = _unpack_signed(packed, _WIDTH)
    sizes = tuple(map(abs, coeffs.values()))
    return (packed, max(sizes, default=0), sum(sizes), min(coeffs, default=D + 1),
            QSeries._trusted(coeffs, D))


@cache
def _morris_step(nu: Partition,
                 mu1: int) -> tuple[tuple[int, int, tuple[int, int], Partition, int], ...]:
    """The terms (factor, |factor|, shifts, lam, |lam|) of the stable step
    for K_{nu,mu} in both families, shifts the pair of `_step`:
    K_{nu,mu} = sum factor q^shift K_{lam, mu-flat}, shift = shifts[1] for
    sp and shifts[0] for so, at every shift.  The step depends on mu only
    through mu_1 (0 for mu = empty), so one table serves every mu with
    that first part, both families and every truncation D."""
    # |nu| + |nu-flat|, with |nu-flat| = |nu| - nu_1 (nu_1 = 0 for nu = empty)
    measure = 2 * weight(nu) - (nu[0] if nu else 0)
    terms = []
    for sign, shifts, gamma, r in _step(nu, mu1):
        for lam, pc in pieri_expand(gamma, r).items():
            # the self-term (s = 1, a = 0), moved to the left-hand side: for
            # a > 0, |lam| < |nu|; for s >= 2, lam holds gamma(s), whose
            # first part nu_1 + 1 does not fit inside nu
            if not mu1 and lam == nu:
                continue
            size = weight(lam)
            assert 2 * size - (lam[0] if lam else 0) < measure, (nu, mu1, lam)
            factor = sign * pc
            terms.append(_shared((factor, abs(factor), shifts, lam, size)))
    return _shared(tuple(terms))


@cache
def _shared(value: tuple) -> tuple:
    """The first stored tuple equal to value: most step terms recur across
    steps, so each distinct term and step is stored once."""
    return value


def degree_bounds(rs: RootSystem, nu: Partition, mu: Partition) -> tuple[int, int]:
    """(lower, upper) degree window for a nonzero K_{nu,mu}(q), nu and mu
    dominant (type-D mirror weights allowed); the upper bound is attained
    with coefficient 1 whenever the polynomial is nonzero."""
    nu, mu = check_dominant(rs, nu), check_dominant(rs, mu)
    n = rs.rank
    # the top degree is <nu - mu, rho-check>, rho-check the rho of the
    # dual type (B and C swap, D is self-dual)
    dual = RootSystem({"B": "C", "C": "B", "D": "D"}[rs.kind], n)
    rd = rho_doubled(dual)
    upper = sum(r * (a - b) for r, a, b in zip(rd, padded(nu, n), padded(mu, n))) // 2
    return (weight(nu) - weight(mu) + 1) // 2, upper


def brylinski_dims(rs: RootSystem, lam: Partition, mu: Partition, k: int) -> int:
    """dim of the k-th step of the principal-nilpotent filtration of the
    mu-weight space of V(lam): the partial sum of K-coefficients up to q^k."""
    check_bound(k, "k", -1)
    series = k_recurrence_finite(rs, lam, mu)
    return sum(c for d, c in series.coeffs.items() if d <= k)
