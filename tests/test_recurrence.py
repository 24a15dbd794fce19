"""Rank-lowering recurrence and the rank-stable limit series.

The recurrence is checked against the direct Weyl-group alternating sum
(independent code path), the limit series against the branching-based
harmonic coefficients, and against closed forms for one-row and
one-column shapes.
"""

from functools import cache

import pytest

from qweyl import hall_littlewood, recurrence
from qweyl.branching import harmonic_coeff_stable, specialise
from qweyl.hall_littlewood import k_matrix, p_basis_matrix
from qweyl.partitions import _checked_partition, dominates, enumerate_partitions, padded, weight
from qweyl.pieri import _pieri_support, pieri_expand
from qweyl.qkostant import _direct_table, _table, k_direct, weight_multiplicity
from qweyl.qseries import QSeries, _pack, _unpack_signed
from qweyl.recurrence import (
    brylinski_dims,
    degree_bounds,
    _finite_pieri,
    _k_finite,
    _k_limit,
    _morris_step,
    _pooled,
    _step,
    k_limit,
    k_recurrence_finite,
)
from qweyl.rootsystems import RootSystem, diagram_flip, weyl_dim
from morris_reference import morris_step_per_family


def test_step_examples():
    # (sign, shift, gamma(s), r) per (s, a), read from the shift pair
    # (R_s, r + a): R_s in types B and D and r + a in type C
    def step(nu, mu):
        terms = list(_step(nu, mu[0] if mu else 0))
        return ([(sign, so, gamma, r) for sign, (so, _), gamma, r in terms],
                [(sign, sp, gamma, r) for sign, (_, sp), gamma, r in terms])

    assert step((4,), ()) == (
        [(1, 4, (), 4), (1, 4, (), 2), (1, 4, (), 0)],
        [(1, 4, (), 4), (1, 3, (), 2), (1, 2, (), 0)],
    )
    assert step((1, 1, 1), (1,)) == ([(1, 0, (1, 1), 0)],) * 2
    assert step((), ()) == ([(1, 0, (), 0)],) * 2
    assert step((3, 2), ()) == (
        [(1, 3, (2,), 3), (1, 3, (2,), 1), (-1, 1, (4,), 1)],
        [(1, 3, (2,), 3), (1, 2, (2,), 1), (-1, 1, (4,), 1)],
    )


def test_recurrence_matches_direct_sum():
    for kind in "BCD":
        for n in (2, 3):
            rs = RootSystem(kind, n)
            for nu in enumerate_partitions(4):
                if len(nu) > n:
                    continue
                for mu in enumerate_partitions(weight(nu)):
                    if len(mu) > n or not dominates(nu, mu):
                        continue
                    assert k_recurrence_finite(rs, nu, mu) == k_direct(
                        rs, nu, mu
                    ), (rs.algebra, nu, mu)


def test_recurrence_matches_direct_rank4_spots():
    for rs in (RootSystem("B", 4), RootSystem("C", 4), RootSystem("D", 4)):
        for nu, mu in [((2, 1, 1), ()), ((1, 1, 1, 1), ()), ((2, 2), (1, 1))]:
            assert k_recurrence_finite(rs, nu, mu) == k_direct(rs, nu, mu), (
                rs.algebra,
                nu,
                mu,
            )


@pytest.mark.parametrize("n, max_weight", [(5, 5), (6, 4)])
def test_recurrence_matches_direct_sum_high_rank(n, max_weight):
    for kind in "BCD":
        rs = RootSystem(kind, n)
        for nu in enumerate_partitions(max_weight):
            for mu in enumerate_partitions(weight(nu)):
                if dominates(nu, mu):
                    assert k_recurrence_finite(rs, nu, mu) == k_direct(rs, nu, mu), (rs, nu, mu)


def test_recurrence_matches_direct_sum_on_128_bit_tables():
    # these queries read P_q tables of 128-bit slots through the signed
    # reader, and k_direct still equals the recurrence
    _table.cache_clear()
    for kind, n, nu in (("B", 9, (2,)), ("C", 9, (2,)), ("D", 8, (2, 1, 1))):
        rs = RootSystem(kind, n)
        assert _direct_table(rs, nu, ()).width == 128
        direct = k_direct(rs, nu, ())
        assert direct and direct == k_recurrence_finite(rs, nu, ()), (rs, nu)
    _table.cache_clear()


def test_recurrence_has_no_rank_limit():
    # _k_finite descends one rank per call; far above the recursion limit
    # the memo is filled from below first.  K_{lam,0} is q^n for the
    # vector representation (1) of B_n, and for the adjoint representations
    # (1, 1) of D_n and (2) of C_n it is the sum of q^e over the exponents
    # e of the algebra (Kostant): 1, 3, ..., 2n - 3 and n - 1 for D_n;
    # 1, 3, ..., 2n - 1 for C_n
    assert k_recurrence_finite(RootSystem("B", 2000), (1,), ()) == QSeries.monomial(2000)
    n = 450
    assert k_recurrence_finite(RootSystem("D", n), (1, 1), ()) == QSeries(
        [(2 * i - 1, 1) for i in range(1, n)] + [(n - 1, 1)])
    assert k_recurrence_finite(RootSystem("C", n), (2,), ()) == QSeries(
        {2 * i - 1: 1 for i in range(1, n + 1)})


def test_the_span_pass_equals_plain_recursion(monkeypatch):
    # with a span of 1, 2 or 3 ranks every query runs the bottom-up pass,
    # and gets the value of plain recursion (type-D mirror weights
    # included); the pass fills the memo with exactly as many keys
    cases = []
    for kind in "BCD":
        for n in (3, 4, 5):
            rs = RootSystem(kind, n)
            weights = [p for p in enumerate_partitions(4) if len(p) <= n]
            if kind == "D":
                weights += [p[:-1] + (-p[-1],) for p in weights if len(p) == n]
            for nu in weights:
                for mu in weights:
                    if sum(map(abs, mu)) <= sum(map(abs, nu)):
                        cases.append((rs, nu, mu))
    _k_finite.cache_clear()
    plain = [k_recurrence_finite(rs, nu, mu) for rs, nu, mu in cases]
    keys = _k_finite.cache_info().currsize
    for span in (1, 2, 3):
        monkeypatch.setattr(recurrence, "_SPAN", span)
        _k_finite.cache_clear()
        assert [k_recurrence_finite(rs, nu, mu) for rs, nu, mu in cases] == plain, span
        assert _k_finite.cache_info().currsize == keys, span
    _k_finite.cache_clear()


def _cone_cases():
    """Every pair of dominant weights with |nu|, |mu| <= 4 on B/C/D ranks
    2-5, type-D mirror weights included: odd |nu| - |mu|, mu not dominated
    by nu and |mu| > |nu| among them."""
    cases = []
    for kind in "BCD":
        for n in range(2, 6):
            rs = RootSystem(kind, n)
            weights = [p for p in enumerate_partitions(4) if len(p) <= n]
            if kind == "D":
                weights += [diagram_flip(kind, n, p) for p in weights if len(p) == n]
            cases += [(rs, nu, mu) for nu in weights for mu in weights]
    return cases


def _cone_mismatches(cases):
    """The cases where k_recurrence_finite differs from the recursion with
    `_off_cone` never firing (the unpruned sum) or from k_direct."""
    cone = recurrence._off_cone
    recurrence._off_cone = lambda kind, n, nu, mu: False
    _k_finite.cache_clear()
    try:
        unpruned = [k_recurrence_finite(rs, nu, mu) for rs, nu, mu in cases]
    finally:
        recurrence._off_cone = cone
    _k_finite.cache_clear()
    try:
        return [(str(rs), nu, mu) for (rs, nu, mu), want in zip(cases, unpruned)
                if not k_recurrence_finite(rs, nu, mu) == want == k_direct(rs, nu, mu)]
    finally:
        _k_finite.cache_clear()


def test_off_cone_pairs_match_the_unpruned_sum_and_the_direct_sum():
    # the cut changes no value: against the unpruned recursion and k_direct;
    # in type D, nu - mu = (0, ..., 0, 2) has no negative prefix sum and an
    # even total, but S_{n-1} = 0 < |v_n| puts it off the cone
    type_d_zeros = [(RootSystem("D", n), (2,) * n, (2,) * (n - 1)) for n in (3, 4, 5)]
    cases = _cone_cases() + type_d_zeros
    assert not _cone_mismatches(cases)
    assert sum(recurrence._off_cone(rs.kind, rs.rank, nu, mu) for rs, nu, mu in cases) > 1000
    assert all(k_direct(*case) == QSeries.zero() for case in type_d_zeros)
    # above _SPAN, an off-cone query memoises its own key alone
    for rs, nu, mu in ((RootSystem("C", 2000), (2, 1), ()),
                       (RootSystem("D", 1000), (2,) * 1000, (2,) * 999)):
        _k_finite.cache_clear()
        assert k_recurrence_finite(rs, nu, mu) == QSeries.zero()
        assert _k_finite.cache_info().currsize == 1
    _k_finite.cache_clear()


def test_off_cone_demanding_an_even_total_in_type_b_fails(monkeypatch):
    # Mutation: B_n has the short simple root e_n, so an odd total is in
    # its cone; demanding an even total there too zeroes K_{(1),()} = q^n
    # of the vector representation, and the comparison fails
    cone = recurrence._off_cone
    monkeypatch.setattr(recurrence, "_off_cone", lambda kind, n, nu, mu: cone("C", n, nu, mu))
    mismatches = _cone_mismatches(_cone_cases())
    monkeypatch.undo()
    assert all(rs.startswith("B") for rs, _, _ in mismatches), mismatches
    assert {(f"B{n}", (1,), ()) for n in range(2, 6)} <= set(mismatches), mismatches


def test_recurrence_validates_shapes():
    with pytest.raises(ValueError):
        k_recurrence_finite(RootSystem("C", 2), (1, 1, 1), ())
    with pytest.raises(ValueError):
        k_recurrence_finite(RootSystem("B", 2), (1,), (1, 1, 1))


def test_recurrence_accepts_type_d_mirror_weights():
    for n in (3, 4):
        rs = RootSystem("D", n)
        weights = [p for p in enumerate_partitions(4) if len(p) <= n]
        weights += [p[:-1] + (-p[-1],) for p in weights if len(p) == n]
        for nu in weights:
            for mu in weights:
                assert k_recurrence_finite(rs, nu, mu) == k_direct(rs, nu, mu), (rs, nu, mu)


def test_finite_pieri_dimension_audit():
    # in both regimes, folded and mirrored components included, the
    # components must add up to dim V(gamma) * dim V((l))
    for kind in "BCD":
        for n in (2, 3, 4):
            rs = RootSystem(kind, n)
            for gamma in enumerate_partitions(4):
                if len(gamma) > n:
                    continue
                for l in range(4):
                    dec = dict(_finite_pieri(kind, n, gamma, l))
                    total = sum(m * weyl_dim(rs, lam) for lam, m in dec.items())
                    assert total == weyl_dim(rs, gamma) * weyl_dim(rs, (l,)), (rs, gamma, l)


def _finite_pieri_unmemoised(kind, n, gamma, l):
    """The finite Pieri step as a dict, built afresh on every call."""
    out = specialise(pieri_expand(gamma, l), kind, n)
    if kind != "D":
        return out
    # specialise lists a full-length key alone; the step needs its mirror too
    out.update({diagram_flip(kind, n, lam): m for lam, m in out.items()})
    if not gamma or len(gamma) < n:
        return out
    low = tuple(g - 1 for g in gamma)
    diff = specialise(pieri_expand(low, l), "C", n)
    if l >= 2:
        for kappa, m in specialise(pieri_expand(low, l - 2), "C", n).items():
            diff[kappa] = diff.get(kappa, 0) - m
    for kappa, m in diff.items():
        lam = tuple(k + 1 for k in padded(kappa, n))
        out[lam] = out.get(lam, 0) + m
        mirror = diagram_flip(kind, n, lam)
        out[mirror] = out.get(mirror, 0) - m
    assert all(c % 2 == 0 for c in out.values()), (kind, n, gamma, l)
    return {lam: c // 2 for lam, c in out.items() if c}


def test_finite_pieri_memo_matches_unmemoised():
    full_d = 0
    for kind in "BCD":
        for n in range(6):
            for gamma in enumerate_partitions(6):
                if len(gamma) > n:
                    continue
                full_d += kind == "D" and len(gamma) == n > 0
                for l in range(5):
                    got = _finite_pieri(kind, n, gamma, l)
                    want = _finite_pieri_unmemoised(kind, n, gamma, l)
                    # one pair per weight, no zero multiplicity
                    assert len(got) == len(want) and dict(got) == want, (kind, n, gamma, l)
                    hash(got)  # immutable, so the memo cannot be edited
    assert full_d > 0


def test_finite_memos_do_not_depend_on_call_order():
    """From empty _finite_pieri and _k_finite tables, ranks 2-6 asked going
    up and going down give the same values and fill the same entries."""
    results, sizes = [], []
    for ranks in (range(2, 7), range(6, 1, -1)):
        _finite_pieri.cache_clear()
        _k_finite.cache_clear()
        values = {}
        for n in ranks:
            for kind in "BCD":
                rs = RootSystem(kind, n)
                for nu in enumerate_partitions(4):
                    for mu in enumerate_partitions(weight(nu)):
                        if max(len(nu), len(mu)) <= n and dominates(nu, mu):
                            values[kind, n, nu, mu] = k_recurrence_finite(rs, nu, mu)
        results.append(values)
        sizes.append((_finite_pieri.cache_info().currsize, _k_finite.cache_info().currsize))
    assert results[0] == results[1]
    assert sizes[0] == sizes[1] and sizes[0][0] > 0


def _both_signs(w, kind, n):
    """w and, for a full-length type-D weight, its mirror."""
    return [w, w[:-1] + (-w[-1],)] if kind == "D" and len(w) == n else [w]


def test_type_d_full_length_pieri_against_direct_sum():
    # the full-length type-D step of _finite_pieri must tell X from its
    # mirror sigma(X); a dimension count cannot, K_{nu,mu} against k_direct
    # can.  Full-length nu and mu are taken with both signs.
    cells = 0
    for n in (3, 4, 5, 6):
        rs = RootSystem("D", n)
        for nu in enumerate_partitions(n + 2):
            if len(nu) != n:
                continue
            for mu in enumerate_partitions(weight(nu)):
                if len(mu) > n or not dominates(nu, mu):
                    continue
                for nu_w in _both_signs(nu, "D", n):
                    for mu_w in _both_signs(mu, "D", n):
                        want = k_direct(rs, nu_w, mu_w)
                        assert k_recurrence_finite(rs, nu_w, mu_w) == want, (rs, nu_w, mu_w)
                        cells += 1
    assert cells == 456


def test_recurrence_matches_direct_sum_rank_2():
    # the recurrence runs down to rank 0, so rank 2 is a second path too
    cells = 0
    for kind in "BCD":
        rs = RootSystem(kind, 2)
        for nu in enumerate_partitions(8):
            if len(nu) > 2:
                continue
            for mu in enumerate_partitions(weight(nu)):
                if len(mu) > 2 or not dominates(nu, mu):
                    continue
                for nu_w in _both_signs(nu, kind, 2):
                    for mu_w in _both_signs(mu, kind, 2):
                        want = k_direct(rs, nu_w, mu_w)
                        assert k_recurrence_finite(rs, nu_w, mu_w) == want, (rs, nu_w, mu_w)
                        cells += 1
    assert cells == 1435


def test_recurrence_never_reaches_the_oracle():
    # no P_q table is built or read: k_direct is not called at any rank
    _k_finite.cache_clear()
    before = _table.cache_info()
    for kind in "BCD":
        for n in range(2, 7):
            rs = RootSystem(kind, n)
            for nu in enumerate_partitions(3):
                for mu in enumerate_partitions(weight(nu)):
                    if max(len(nu), len(mu)) <= n and dominates(nu, mu):
                        k_recurrence_finite(rs, nu, mu)
            brylinski_dims(rs, (2, 1), (1, 1), 2)
    assert _table.cache_info() == before


def test_memo_hits_return_same_object():
    # the immutable QSeries and tuple results are shared
    calls = (
        (_k_limit, lambda: k_limit("sp", (3, 1), (1,), 5)),
        (_k_finite, lambda: k_recurrence_finite(RootSystem("B", 4), (2, 1), (1,))),
        (_finite_pieri, lambda: _finite_pieri("D", 3, (2, 1, 1), 2)),
    )
    for memo, call in calls:
        first = call()
        hits = memo.cache_info().hits
        assert call() is first
        assert memo.cache_info().hits > hits, memo
    # the shared Pieri step is tuples of ints all the way down
    step = _finite_pieri("D", 3, (2, 1, 1), 2)
    assert isinstance(step, tuple) and step
    hash(step)


def test_a_repeated_query_validates_from_the_memo():
    # the second k_limit checks its partitions by memo hits alone
    k_limit("so", (3, 2, 1), (1,), 6)
    before = _checked_partition.cache_info()
    k_limit("so", (3, 2, 1), (1,), 6)
    after = _checked_partition.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_pieri_memo_hits():
    pieri_expand((3, 1), 2)
    hits = _pieri_support.cache_info().hits
    pieri_expand([3, 1, 0], 2)  # normalised to the same key
    assert _pieri_support.cache_info().hits == hits + 1


def test_limit_base_cases():
    assert k_limit("so", (), (), 5) == QSeries.one().truncated(5)
    assert k_limit("sp", (1,), (1,), 5) == QSeries.one().truncated(5)
    # odd total weight gap vanishes in the stable limit
    assert k_limit("so", (1,), (), 5).is_zero()


def test_limit_matches_harmonic_coefficients():
    D = 5
    for family in ("so", "sp"):
        for nu in enumerate_partitions(4):
            series = k_limit(family, nu, (), D)
            for k in range(D + 1):
                assert series[k] == harmonic_coeff_stable(family, k, nu), (
                    family,
                    nu,
                    k,
                )


def test_limit_is_the_large_rank_limit():
    D = 3
    rank = 7
    for kind, family in (("B", "so"), ("C", "sp"), ("D", "so")):
        rs = RootSystem(kind, rank)
        for nu in enumerate_partitions(3):
            for mu in enumerate_partitions(weight(nu)):
                if (weight(nu) - weight(mu)) % 2 or not dominates(nu, mu):
                    continue
                finite = k_recurrence_finite(rs, nu, mu).truncated(D)
                assert finite == k_limit(family, nu, mu, D), (kind, nu, mu)


def _n_stat(mu):
    return sum(i * x for i, x in enumerate(mu))


def test_limit_row_shapes_factor():
    D = 8
    for m in range(1, 7):
        for mu in enumerate_partitions(m):
            if (m - weight(mu)) % 2:
                continue
            rest = m - weight(mu)
            lhs = k_limit("sp", (m,), mu, D)
            rhs = k_limit("sp", (rest,) if rest else (), (), D).shift(_n_stat(mu))
            assert lhs.coeffs == rhs.truncated(D).coeffs, (m, mu)


def test_limit_column_shapes_shift():
    D = 8
    for m in range(8):
        for p in range(m % 2, m + 1, 2):
            lhs = k_limit("sp", (1,) * m, (1,) * p, D)
            rhs = k_limit("sp", (1,) * (m - p), (), D)
            assert lhs == rhs, (m, p)


def test_long_row_matches_the_row_formula():
    """K^so_{(L),()} = q^L / prod_{i <= L/2} (1 - q^{2i}), the paper's row
    formula, so up to q^{2L} its coefficient of q^{L+2t} is p(t), the
    number of partitions of t.  At L = 380 the largest, p(190), has 41
    bits, while D // nu_1 + 1 times the dividend's bound passes 2^63, so
    the quotient must be bounded by its own coefficients."""
    L = 380
    p = [1] + [0] * (L // 2)
    for part in range(1, L // 2 + 1):
        for t in range(part, L // 2 + 1):
            p[t] += p[t - part]
    assert p[L // 2] == 1_667_727_404_093
    want = {L + 2 * t: c for t, c in enumerate(p)}
    assert k_limit("so", (L,), (), 2 * L).coeffs == want


def test_limit_memoizes_consistently():
    a = k_limit("so", (2, 2), (), 6)
    b = k_limit("so", (2, 2), (), 4)
    assert a.truncated(4).coeffs == b.coeffs


@cache
def _k_limit_unshared(family, nu, mu, D):
    """The stable recurrence with its step built inside every (family, nu,
    mu, D) entry and the shifts above D skipped while it is built."""
    if not nu and not mu:
        return QSeries.one(D)
    mu_flat = mu[1:]
    measure = weight(nu) + weight(nu[1:])
    terms = []
    # the first term of a step is (s, a) = (1, 0)
    for i, (sign, shifts, gam, r) in enumerate(_step(nu, mu[0] if mu else 0)):
        shift = shifts[family == "sp"]
        if shift > D:
            continue
        for lam, pc in pieri_expand(gam, r).items():
            if not mu and i == 0 and lam == nu:
                continue
            assert weight(lam) + weight(lam[1:]) < measure, (nu, mu, lam)
            terms.append((sign * pc, shift, _k_limit_unshared(family, lam, mu_flat, D)))
    total = QSeries.combination(terms, D)
    if not mu:
        total = total.div_one_minus_qm(nu[0], D)
    return total


def _dominated_pairs(max_weight):
    return [
        (nu, mu)
        for nu in enumerate_partitions(max_weight)
        for mu in enumerate_partitions(weight(nu))
        if dominates(nu, mu)
    ]


def test_shared_step_matches_unshared_recurrence():
    """k_limit, with its shared step and its pruned children, equals the
    recurrence that builds its step per entry and sums every child, on
    every pair of shapes up to weight 8: dominated or not, of either
    parity and with |nu| < |mu| too.  The unshared values obey both facts
    the pruning rests on."""
    shapes = enumerate_partitions(8)
    nonzero = 0
    for family in ("so", "sp"):
        for D in (0, 1, 2, 3, 4, 6):
            for nu in shapes:
                for mu in shapes:
                    want = _k_limit_unshared(family, nu, mu, D)
                    assert k_limit(family, nu, mu, D) == want, (family, nu, mu, D)
                    gap = weight(nu) - weight(mu)
                    # K is 0 for |nu| < |mu|, and starts at degree >= gap / 2
                    assert gap >= 0 or not want, (family, nu, mu, D)
                    assert all(2 * d >= gap for d in want.coeffs), (family, nu, mu, D)
                    nonzero += bool(want)
    assert nonzero > 1000


def test_shared_step_does_not_depend_on_call_order():
    """From empty tables, D = 4 and D = 6 asked in either order give the
    unshared values and leave the same step and pool entries behind."""
    pairs = _dominated_pairs(8)
    sizes = []
    for order in ((4, 6), (6, 4)):
        _k_limit.cache_clear()
        _morris_step.cache_clear()
        _pooled.cache_clear()
        for D in order:
            for family in ("so", "sp"):
                for nu, mu in pairs:
                    want = _k_limit_unshared(family, nu, mu, D)
                    assert k_limit(family, nu, mu, D) == want, (order, family, nu, mu, D)
        sizes.append((_morris_step.cache_info().currsize, _pooled.cache_info().currsize))
    assert sizes[0] == sizes[1] and min(sizes[0]) > 0


def test_pruned_children_are_never_memoised(monkeypatch):
    """A child with |lam| < |mu-flat| is neither looked up nor stored."""
    _k_limit.cache_clear()
    keys = set()

    def recorded(family, nu, mu, D):
        keys.add((nu, mu))
        return _k_limit(family, nu, mu, D)

    # the recursion and k_matrix both reach _k_limit through a module name
    monkeypatch.setattr(recurrence, "_k_limit", recorded)
    monkeypatch.setattr(hall_littlewood, "_k_limit", recorded)
    k_matrix("so", 8, 4)
    assert len(keys) == _k_limit.cache_info().currsize > 0
    assert all(weight(nu) >= weight(mu) for nu, mu in keys)


@pytest.fixture
def empty_stable_memo():
    """Empty stable memo and pool before and after the test: their packed
    values hold only at the slot width they were computed at."""
    def clear():
        _k_limit.cache_clear()
        _pooled.cache_clear()

    clear()
    yield clear
    clear()


def test_narrow_slots_raise_and_never_return_a_wrong_value(monkeypatch, empty_stable_memo):
    """At every slot width the memo and the P-basis scatter either give the
    64-bit values or raise; both guards fire below the widths they need."""
    want = {}
    for family in ("so", "sp"):
        want[family] = (k_matrix(family, 8, 4).entries, p_basis_matrix(family, 8, 4).entries)
    failed = {"k": set(), "p": set()}
    for width in range(2, 12):
        monkeypatch.setattr(recurrence, "_WIDTH", width)
        for family in ("so", "sp"):
            for name, build, entries in (("k", k_matrix, want[family][0]),
                                         ("p", p_basis_matrix, want[family][1])):
                empty_stable_memo()
                try:
                    got = build(family, 8, 4)
                except OverflowError:
                    failed[name].add((family, width))
                    continue
                assert got.entries == entries, (name, family, width)
    assert ("so", 2) in failed["k"] and ("so", 11) not in failed["p"]
    # a width where the memo fits but the scatter's bound does not
    assert failed["p"] - failed["k"]


def test_every_bound_handed_to_fit_holds(monkeypatch, empty_stable_memo):
    """The memo and the P-basis scatter hand _fit a bound on the
    coefficients they have summed: each is at least the largest one."""
    fit = recurrence._fit
    calls = []

    def checked(packed, bound, D):
        out = fit(packed, bound, D)
        calls.append((max(map(abs, _unpack_signed(out, recurrence._WIDTH).values()), default=0),
                      bound))
        return out

    # the memo and the scatter both reach _fit through a module name
    monkeypatch.setattr(recurrence, "_fit", checked)
    monkeypatch.setattr(hall_littlewood, "_fit", checked)
    for family in ("so", "sp"):
        p_basis_matrix(family, 10, 5)
    assert len(calls) > 1000
    assert all(top <= bound for top, bound in calls)


def test_bool_truncation_is_rejected_and_never_memoised(empty_stable_memo):
    # True == 1 and hash(True) == hash(1): a bool that got into the memo
    # would answer every later query at D = 1 with a series of bound True
    for bad in (True, False):
        with pytest.raises(ValueError, match="D must be an integer"):
            k_limit("so", (2,), (), bad)
    series = k_limit("so", (2,), (), 1)
    assert type(series.trunc) is int and series.trunc == 1


def _by_value(values, key) -> dict:
    """{key(value): set of the ids of the values with that key}."""
    groups: dict = {}
    for value in values:
        groups.setdefault(key(value), set()).add(id(value))
    return groups


def test_equal_limit_series_are_one_object():
    km = k_matrix("so", 8, 4)
    groups = _by_value(km.entries.values(), lambda s: (tuple(s.pairs()), s.trunc))
    # the window repeats series, so the pool has something to share
    assert len(groups) < len(km.entries)
    assert all(len(ids) == 1 for ids in groups.values())
    distinct = {id(s) for s in km.entries.values()}
    assert len(distinct) == len(groups)
    # the base case and k_limit go through the same pool
    assert k_limit("so", (), (), 4) is k_limit("so", (1,), (1,), 4)


def test_equal_morris_terms_are_one_object():
    # one table entry per (nu, mu1) serves both families
    steps = [_morris_step(nu, mu1)
             for nu in enumerate_partitions(8)
             for mu1 in range(4)]
    terms = [term for step in steps for term in step]
    term_groups = _by_value(terms, lambda t: t)
    assert len(term_groups) < len(terms)
    assert all(len(ids) == 1 for ids in term_groups.values())
    step_groups = _by_value(steps, lambda st: st)
    assert len(step_groups) < len(steps)
    assert all(len(ids) == 1 for ids in step_groups.values())


def test_shared_step_matches_each_family_built_alone():
    """Each family's reading of the shared step (its shift of each term)
    is the step that family builds alone, term for term and in order."""
    differ = 0
    for nu in enumerate_partitions(10):
        for mu1 in range(5):
            step = _morris_step(nu, mu1)
            for family, i in (("so", 0), ("sp", 1)):
                got = tuple((f, m, shifts[i], lam, size) for f, m, shifts, lam, size in step)
                assert got == morris_step_per_family(family, nu, mu1), (family, nu, mu1)
            differ += any(so != sp for _, _, (so, sp), _, _ in step)
    # the shifts differ in 374 of the 578 nonempty steps, so the families
    # do not read one copy
    assert differ > 300


def test_pool_entries_carry_their_l1_norm_and_lowest_degree():
    """Every pooled entry that k_matrix and p_basis_matrix read measures
    its own QSeries: largest |coefficient|, l1 norm and lowest degree
    (D + 1 for the zero value)."""
    for family in ("so", "sp"):
        km = k_matrix(family, 8, 4)
        pm = p_basis_matrix(family, 8, 4)
        keys = [(lam, mu) for lam in km.index for mu in km.index]
        entries = [_k_limit(family, lam, mu, 4) for lam, mu in keys]
        entries += [_pooled(_pack(s.coeffs.items(), recurrence._WIDTH), 4)
                    for s in pm.entries.values()]
        for packed, top, l1, low, series in entries:
            sizes = [abs(c) for c in series.coeffs.values()]
            assert top == max(sizes, default=0)
            assert l1 == sum(sizes)
            assert low == (series.low_degree() if series else 5)
            assert _unpack_signed(packed, recurrence._WIDTH) == series.coeffs
        assert any(not e[0] for e in entries) and any(e[3] > 0 for e in entries)


def test_degree_bounds_examples():
    assert degree_bounds(RootSystem("C", 2), (2,), ()) == (1, 3)
    assert degree_bounds(RootSystem("B", 3), (1,), ()) == (1, 3)
    assert degree_bounds(RootSystem("D", 3), (2, 1, 1), (2, 1, 1)) == (0, 0)
    assert degree_bounds(RootSystem("D", 3), (2, 2, -2), ()) == (1, 6)


def test_degree_bounds_hold_and_top_is_monic():
    for kind in "BCD":
        rs = RootSystem(kind, 3)
        for nu in enumerate_partitions(4):
            if len(nu) > 3:
                continue
            for mu in enumerate_partitions(weight(nu)):
                if len(mu) > 3 or not dominates(nu, mu):
                    continue
                series = k_direct(rs, nu, mu)
                if series.is_zero():
                    continue
                lo, hi = degree_bounds(rs, nu, mu)
                assert lo <= series.low_degree()
                assert series.degree() == hi and series[hi] == 1, (kind, nu, mu)


def test_degree_bounds_hold_for_mirror_weights():
    # the degree window is the same formula on signed type-D weights; the
    # cells are those with a mirror weight nu or mu, |nu|, |mu| <= 6
    cells = 0
    for n in (2, 3, 4):
        rs = RootSystem("D", n)
        weights = [p for p in enumerate_partitions(6) if len(p) <= n]
        weights += [p[:-1] + (-p[-1],) for p in weights if len(p) == n]
        for nu in weights:
            for mu in weights:
                if min(nu + mu + (0,)) >= 0:
                    continue
                series = k_direct(rs, nu, mu)
                if series.is_zero():
                    continue
                cells += 1
                lo, hi = degree_bounds(rs, nu, mu)
                assert lo <= series.low_degree(), (rs, nu, mu)
                assert series.degree() == hi and series[hi] == 1, (rs, nu, mu)
    assert cells == 198


def test_brylinski_dims():
    rs = RootSystem("C", 3)
    assert brylinski_dims(rs, (2,), (), -1) == 0
    prev = 0
    for k in range(6):
        cur = brylinski_dims(rs, (2, 1, 1), (1, 1), k)
        assert cur >= prev
        prev = cur
    assert prev == weight_multiplicity(rs, (2, 1, 1), (1, 1))
