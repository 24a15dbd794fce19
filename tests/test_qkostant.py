"""q-Kostant partition function and the direct alternating sum.

Oracles here are deliberately independent: P_q is checked against naive
multiset enumeration, and the |lambda| = |mu| reduction is checked
against a self-contained type-A (general linear) alternating sum that
shares nothing with the B/C/D machinery.
"""

from itertools import accumulate, permutations, product
from math import comb

import pytest

from qweyl.partitions import dominates, enumerate_partitions, padded, weight
from qweyl.qkostant import (QKostantTable, _direct_table, _table, k_direct, pq_width,
                            q_kostant, weight_multiplicity)
from qweyl.qseries import QSeries, _unpack_signed
from qweyl.rootsystems import (
    RootSystem,
    dot_action,
    positive_roots,
    rho_doubled,
    weyl_iter,
    weyl_order,
)
from weyl_reference import sign, whole_group


def pq_naive(rs, beta):
    """Count multisets of positive roots with sum beta, graded by size.

    Plain nested loops with a generous hard cap on how often each root
    may repeat; no pruning logic shared with the implementation.
    """
    roots = [tuple(c // 2 for c in r) for r in positive_roots(rs)]
    cap = sum(abs(b) for b in beta) + 1

    def rec(idx, rest):
        if idx == len(roots):
            return {0: 1} if all(x == 0 for x in rest) else {}
        acc = {}
        cur = rest
        for j in range(cap + 1):
            for size, c in rec(idx + 1, cur).items():
                acc[size + j] = acc.get(size + j, 0) + c
            cur = tuple(a - b for a, b in zip(cur, roots[idx]))
        return acc

    return rec(0, tuple(beta))


def test_pq_against_naive_enumeration():
    for rs in (RootSystem("B", 2), RootSystem("C", 2), RootSystem("D", 3)):
        n = rs.rank
        for beta in [
            (0,) * n,
            padded((2,), n),
            padded((1, 1), n),
            padded((2, 2), n),
            padded((3, 1), n),
        ]:
            assert q_kostant(rs, beta).coeffs == pq_naive(rs, beta), (rs, beta)


def pq_product(rs, max_height):
    """{beta: {size: count}} for every beta of height <= max_height, read
    off the expansion of prod over positive roots alpha of 1/(1 - q x^alpha).

    The height h(v) = sum_i (n - i) v_i is at least 1 on every positive
    root, so every partial sum of a multiset counted for beta has height
    <= h(beta): cutting the expansion at max_height loses nothing below
    it.  Root by root, no recursion and no cone test.
    """
    n = rs.rank

    def height(v):
        return sum((n - i) * c for i, c in enumerate(v))

    series = {(0,) * n: {0: 1}}
    for alpha in (tuple(c // 2 for c in r) for r in positive_roots(rs)):
        step = height(alpha)
        out = {}
        for gamma, poly in series.items():
            j, cur = 0, gamma
            while height(gamma) + j * step <= max_height:
                slot = out.setdefault(cur, {})
                for size, c in poly.items():
                    slot[size + j] = slot.get(size + j, 0) + c
                j += 1
                cur = tuple(a + b for a, b in zip(cur, alpha))
        series = out
    return series


def test_pq_peeling_against_naive_enumeration():
    # pq_naive enumerates every multiset without pruning; at rank 4 that
    # takes up to a minute per beta, so ranks 2-4 are compared with the
    # product expansion, which is itself checked against pq_naive at rank 2
    seen = {"zero_leading": 0, "odd_sum": 0, "outside_cone": 0, "nonzero": 0}
    for kind in "BCD":
        for n, radius, max_height in ((2, 4, 14), (3, 3, 14), (4, 2, 14)):
            rs = RootSystem(kind, n)
            oracle = pq_product(rs, max_height)
            for beta in product(range(-radius, radius + 1), repeat=n):
                if sum((n - i) * c for i, c in enumerate(beta)) > max_height:
                    continue
                want = oracle.get(beta, {})
                if n == 2:
                    assert want == pq_naive(rs, beta), (rs, beta)
                assert q_kostant(rs, beta).coeffs == want, (rs, beta)
                seen["nonzero"] += bool(want)
                if beta[0] == 0 and any(beta):
                    seen["zero_leading"] += 1
                if kind in "CD" and sum(beta) % 2:
                    seen["odd_sum"] += 1
                    assert not want, (rs, beta)
                if any(s < 0 for s in accumulate(beta)):
                    seen["outside_cone"] += 1
                    assert not want, (rs, beta)
    assert all(seen.values()), seen


# -- the packed table against the dict peel it replaced -----------------


def _dict_tails(tail, budget):
    """Every tail - d with sum |d_j| <= budget and nonnegative prefix sums,
    with budget - sum |d_j|: every e, odd ones included."""
    level = [((), budget, 0)]
    for tk in tail:
        level = [
            (head + (x,), left - abs(tk - x), prefix + x)
            for head, left, prefix in level
            for x in range(max(tk - left, -prefix), tk + left + 1)
        ]
    return [(head, left) for head, left, _ in level]


def _dict_block(kind, m, s, e):
    if kind == "B":
        return ((s, comb(e // 2 + m, m)),)
    if e % 2:
        return ()
    if kind == "D":
        return ((s, comb(e // 2 + m - 1, m - 1)),)
    return tuple((s - c, comb(e // 2 - c + m - 1, m - 1)) for c in range(e // 2 + 1))


def _dict_rank_one(kind, b):
    if kind == "B":
        return {b: 1}
    if kind == "C":
        return {} if b % 2 else {b // 2: 1}
    return {} if b else {0: 1}


def dict_peel(kind, beta, memo, cut):
    """P_q(beta) as {degree: coefficient}, by the peel with {k: c} dicts
    that the packed table replaced, unpruned: every rest is looked up and
    multiplied by its block, also at odd e, where a C or D block is
    empty.  cut[kind] counts those odd-e rests with P_q(rest) != 0."""
    if beta in memo:
        return memo[beta]
    s, tail = beta[0], beta[1:]
    acc = {}
    for rest, e in _dict_tails(tail, s):
        if len(rest) == 1:
            sub = _dict_rank_one(kind, rest[0])
        else:
            sub = dict_peel(kind, rest, memo, cut)
        block = _dict_block(kind, len(tail), s, e)
        if sub and not block:
            cut[kind] = cut.get(kind, 0) + 1
        for deg, c in sub.items():
            for bdeg, bc in block:
                acc[deg + bdeg] = acc.get(deg + bdeg, 0) + c * bc
    memo[beta] = acc
    return acc


def _packed_against_dict_peel():
    """(states compared, odd-e rests with nonzero P_q the cut skipped)"""
    cut, states = {}, 0
    for kind, lam, mu in (("B", (2, 1), ()), ("B", (3, 1), (1,)), ("C", (2, 2), ()),
                          ("C", (3, 1), (1, 1)), ("D", (3, 1), ()), ("D", (2, 2), (1, 1))):
        memo = {}
        for n in range(2, 7):
            rs = RootSystem(kind, n)
            k_direct(rs, lam, mu)
        # each table the case read, once: ranks 2-6 of one width share a
        # table, and it holds the keys of every rank
        for tab in {_direct_table(RootSystem(kind, n), lam, mu) for n in range(2, 7)}:
            for beta, packed in tab.memo.items():
                states += 1
                if len(beta) == 1:
                    want = _dict_rank_one(kind, beta[0])
                else:
                    want = dict_peel(kind, beta, memo, cut)
                assert _unpack_signed(packed, tab.width) == want, (kind, beta)
                assert _unpack_signed(tab.pq_coeffs(beta), tab.width) == want, (kind, beta)
    return states, cut


def test_packed_pq_equals_the_dict_peel():
    # every state k_direct fills at ranks 2-6, lower-rank tables included
    states, _ = _packed_against_dict_peel()
    assert states > 3000


def test_parity_cut_equals_the_unpruned_sum():
    # types C and D skip the rests with odd e; the unpruned dict peel
    # visits them, finds P_q(rest) != 0 at hundreds of them, multiplies
    # each by an empty block, and gets the same P_q
    _, cut = _packed_against_dict_peel()
    assert cut.get("C", 0) > 100 and cut.get("D", 0) > 100, cut
    assert "B" not in cut


def _height(v):
    return sum((len(v) - i) * c for i, c in enumerate(v))


def test_pq_width_bounds_every_coefficient():
    # brute force: P_q by the product expansion, at every beta of height
    # <= 12 in ranks 2-3; degree k <= h(beta), each coefficient
    # <= C(N + h - 1, h), and their sum <= sum_{k <= h} C(N + k - 1, k)
    # = C(N + h, h), whose bit length pq_width covers
    largest = 0
    for kind in "BCD":
        for n in (2, 3):
            rs = RootSystem(kind, n)
            roots = len(positive_roots(rs))
            for beta, poly in pq_product(rs, 12).items():
                h = _height(beta)
                bound = comb(roots + h, h)
                width = pq_width(rs, h)
                assert max(poly) <= h, (rs, beta)
                assert max(poly.values()) <= comb(roots + h - 1, h), (rs, beta)
                assert sum(poly.values()) <= bound, (rs, beta)
                assert bound.bit_length() < width and width >= 64 and not width & (width - 1)
                largest = max(largest, *poly.values())
    assert largest >= 20
    # the width grows past 64 bits where the bound needs it
    B8 = RootSystem("B", 8)
    assert comb(64 + 43, 44).bit_length() > 64
    assert pq_width(B8, 44) == 128 == _direct_table(B8, (3, 2, 1), ()).width
    assert pq_width(B8, -3) == pq_width(B8, 0) == 64
    # the width follows C(N + h, h), the bound on K: at B6, h = 31,
    # C(66, 31) fits in 63 bits but C(67, 31) needs 64
    assert comb(36 + 31 - 1, 31).bit_length() == 63 and comb(36 + 31, 31).bit_length() == 64
    assert pq_width(RootSystem("B", 6), 31) == 128


def test_every_state_k_direct_fills_fits_its_width():
    # with fresh tables, every state the peel reaches from the terms of
    # k_direct(rs, lam, mu) has height <= h(lam - mu), and its largest
    # coefficient has at most the bit length of the bound pq_width covers
    checked = 0
    for kind in "BCD":
        for n in (2, 3, 4, 5):
            rs = RootSystem(kind, n)
            roots = len(positive_roots(rs))
            for lam in enumerate_partitions(4):
                for mu in enumerate_partitions(weight(lam)):
                    if max(len(lam), len(mu)) > n or not dominates(lam, mu):
                        continue
                    _table.cache_clear()
                    k_direct(rs, lam, mu)
                    top = _height(padded(lam, n)) - _height(padded(mu, n))
                    bits = comb(roots + top - 1, top).bit_length()
                    tab = _direct_table(rs, lam, mu)
                    for beta, packed in tab.memo.items():
                        assert _height(beta) <= top, (rs, lam, mu, beta)
                        coeffs = _unpack_signed(packed, tab.width).values()
                        assert max(coeffs, default=0).bit_length() <= bits
                        checked += 1
    _table.cache_clear()
    assert checked > 1000


def test_k_direct_stays_inside_the_verma_bound():
    # the two facts behind the width k_direct decodes K in (pq_width):
    # every coefficient of K is >= 0, and K(1) = dim V(lam)_mu is at most
    # P_q(lam - mu) at q = 1, dim M(lam)_mu, itself <= C(N + h, h)
    checked = 0
    for kind in "BCD":
        for n in (2, 3, 4, 5):
            rs = RootSystem(kind, n)
            roots = len(positive_roots(rs))
            weights = _dominant_weights(kind, n, 4)
            for lam in weights:
                for mu in weights:
                    series = k_direct(rs, lam, mu)
                    beta = tuple(a - b for a, b in zip(padded(lam, n), padded(mu, n)))
                    verma = q_kostant(rs, beta)(1)
                    assert all(c > 0 for c in series.coeffs.values()), (rs, lam, mu)
                    assert series(1) <= verma, (rs, lam, mu)
                    if verma:
                        h = _height(beta)
                        assert verma <= comb(roots + h, h), (rs, lam, mu)
                    checked += series(1) > 0
    assert checked > 500


def test_a_narrow_width_decodes_wrongly():
    # P_q(4, 2, 0) in B3 has the coefficient 55, six bits: four-bit slots
    # carry into each other, while the width of the bound and a sign bit
    # decodes exactly
    B3, beta = RootSystem("B", 3), (4, 2, 0)
    want = q_kostant(B3, beta).coeffs
    assert max(want.values()) == 55
    assert _unpack_signed(QKostantTable("B", 4).pq_coeffs(beta), 4) != want
    bits = comb(9 + 16 - 1, 16).bit_length()
    assert _unpack_signed(QKostantTable("B", bits + 1).pq_coeffs(beta), bits + 1) == want
    assert _unpack_signed(QKostantTable("B", 64).pq_coeffs(beta), 64) == want


def test_q_kostant_rejects_non_integral_coordinates():
    B2 = RootSystem("B", 2)
    for beta in ((1.5, 0), (1, 0.5), (2, "1")):
        with pytest.raises(ValueError):
            q_kostant(B2, beta)
    assert q_kostant(B2, (2.0, 0)) == q_kostant(B2, (2, 0))


def test_q_kostant_rejects_a_weight_of_the_wrong_length():
    B3 = RootSystem("B", 3)
    for beta in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="wrong length"):
            q_kostant(B3, beta)


def test_one_table_per_type_and_width_holds_every_rank():
    # B6 (3) and B5 (3) both read the width-64 table of type B: the
    # second query adds no table, and the one memo holds keys of every
    # length from 1 to 6
    _table.cache_clear()
    B6, B5 = RootSystem("B", 6), RootSystem("B", 5)
    k_direct(B6, (3,), ())
    k_direct(B5, (3,), ())
    assert _table.cache_info().currsize == 1
    tab = _direct_table(B5, (3,), ())
    assert tab is _direct_table(B6, (3,), ()) and tab.width == 64
    assert {len(beta) for beta in tab.memo} == set(range(1, 7))
    _table.cache_clear()


def test_pq_examples():
    C2 = RootSystem("C", 2)
    assert q_kostant(C2, (0, 0)) == QSeries.one()
    assert str(q_kostant(C2, (2, 0))) == "q + q^2 + q^3"
    # off the positive cone
    assert q_kostant(C2, (-1, 0)).is_zero()
    assert q_kostant(RootSystem("D", 3), (1, 0, 0)).is_zero()  # odd coordinate sum


def test_k_direct_examples():
    C2 = RootSystem("C", 2)
    assert str(k_direct(C2, (2,), ())) == "q + q^3"
    assert k_direct(C2, (2, 1), (2, 1)) == QSeries.one()
    # the vector representation of so5: single jump at q^2
    assert k_direct(RootSystem("B", 2), (1,), ()).coeffs == {2: 1}
    assert weight_multiplicity(RootSystem("B", 2), (1,), ()) == 1


def test_k_direct_rejects_long_partitions():
    with pytest.raises(ValueError):
        k_direct(RootSystem("C", 2), (1, 1, 1), ())


def test_k_direct_rejects_non_dominant_weights():
    B3 = RootSystem("B", 3)
    for lam, mu in (((1, 2), ()), ((2, -1), ()), ((2, 0, 1), ()), ((2,), (0, 1))):
        with pytest.raises(ValueError):
            k_direct(B3, lam, mu)
    # type D mirror weights stay valid: full length, |w_n| <= w_{n-1}
    D2 = RootSystem("D", 2)
    assert k_direct(D2, (1, -1), (1, -1)) == QSeries.one()
    assert k_direct(D2, (1, 1), (1, -1)) == QSeries.zero()
    for bad in ((1, -2), (1, 0, -1)):
        with pytest.raises(ValueError):
            k_direct(D2, bad, ())


def _dominant_weights(kind, n, max_weight):
    """Partitions of weight <= max_weight with at most n parts and, in
    type D, the mirror weights of those with n parts."""
    weights = [p for p in enumerate_partitions(max_weight) if len(p) <= n]
    if kind == "D":
        weights += [p[:-1] + (-p[-1],) for p in weights if len(p) == n]
    return weights


def _full_group_sum(rs, orbit, mu):
    """sum of sign(w) P_q(w o lam - mu) over orbit, the (w o lam, sign(w))
    of the whole group, unpruned."""
    mu_p = padded(mu, rs.rank)
    acc = {}
    for moved, sgn in orbit:
        beta = tuple(a - b for a, b in zip(moved, mu_p))
        for deg, c in q_kostant(rs, beta).coeffs.items():
            acc[deg] = acc.get(deg, 0) + sgn * c
    return QSeries(acc)


def test_pruned_weyl_iter_against_full_group():
    # the pruned enumerator yields, once each and with its sign, exactly
    # the w of the brute-force whole group (signs by the parity reference)
    # whose w(lam + rho) - (mu + rho) has nonnegative prefix sums; k_direct,
    # which sums over those, equals the unpruned alternating sum over the
    # whole group
    seen = {"mirror": 0, "zero_coordinate": 0, "nonzero": 0}
    for kind in "BCD":
        for n in (2, 3, 4):
            rs = RootSystem(kind, n)
            rd = rho_doubled(rs)
            group = [(w, sign(w)) for w in whole_group(rs)]
            assert len({w for w, _ in group}) == weyl_order(rs)
            weights = _dominant_weights(kind, n, 5)
            for lam in weights:
                v = tuple(2 * a + r for a, r in zip(padded(lam, n), rd))
                orbit = [(dot_action(w, lam, rs), sgn) for w, sgn in group]
                for mu in weights:
                    if sum(map(abs, mu)) > sum(map(abs, lam)):
                        continue
                    t = tuple(2 * b + r for b, r in zip(padded(mu, n), rd))
                    pruned = list(weyl_iter(rs, lam, mu))
                    kept = [
                        (w, sgn) for w, sgn in group
                        if all(s >= 0 for s in accumulate(a - b for a, b in zip(w.act(v), t)))
                    ]
                    assert len(set(pruned)) == len(pruned), (rs, lam, mu)
                    assert set(pruned) == set(kept), (rs, lam, mu)
                    series = k_direct(rs, lam, mu)
                    assert series == _full_group_sum(rs, orbit, mu), (rs, lam, mu)
                    seen["nonzero"] += not series.is_zero()
                    if kind == "D" and pruned:
                        seen["mirror"] += min(lam + mu + (0,)) < 0
                        seen["zero_coordinate"] += len(lam) < n
    assert all(seen.values()), seen


def test_k_direct_rejects_non_integral_parts():
    # truncating with int() would read (1.5,) as (1,)
    for rs, lam, mu in (
        (RootSystem("B", 3), (1.5,), ()),
        (RootSystem("C", 3), (2,), (0.5, 0.5)),
        (RootSystem("D", 3), (2, 1, -0.5), ()),
    ):
        with pytest.raises(ValueError):
            k_direct(rs, lam, mu)


def test_nonnegativity_and_vanishing():
    for kind in "BCD":
        for n in (2, 3):
            rs = RootSystem(kind, n)
            for lam in enumerate_partitions(4):
                if len(lam) > n:
                    continue
                for mu in enumerate_partitions(weight(lam)):
                    if len(mu) > n:
                        continue
                    series = k_direct(rs, lam, mu)
                    assert all(c >= 0 for c in series.coeffs.values()), (rs, lam, mu)
                    if not dominates(lam, mu):
                        assert series.is_zero()
                    if kind in "CD" and (weight(lam) - weight(mu)) % 2:
                        assert series.is_zero(), (rs, lam, mu)


# -- type-A cross-check for |lambda| = |mu| ----------------------------


def gl_q_analogue(lam, mu):
    """Kostka-Foulkes polynomial by the type-A Kostant alternating sum."""
    n = max(len(lam), len(mu), 1)
    lam, mu = padded(lam, n), padded(mu, n)
    roots = [
        tuple((1 if k == i else -1 if k == j else 0) for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
    ]

    memo = {}

    def pq(idx, rest):
        if idx == len(roots):
            return {0: 1} if all(x == 0 for x in rest) else {}
        key = (idx, rest)
        if key in memo:
            return memo[key]
        acc = {}
        j = 0
        cur = rest
        while sum(cur) == 0 and all(sum(cur[:k]) >= 0 for k in range(n)):
            for size, c in pq(idx + 1, cur).items():
                acc[size + j] = acc.get(size + j, 0) + c
            j += 1
            cur = tuple(a - b for a, b in zip(cur, roots[idx]))
            if any(sum(cur[: k + 1]) < 0 for k in range(n)):
                break
        memo[key] = acc
        return acc

    rho = tuple(range(n - 1, -1, -1))
    out = {}
    for sigma in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        shifted = [0] * n
        for pos, val in enumerate(sigma):
            shifted[val] = lam[pos] + rho[pos]
        beta = tuple(shifted[k] - mu[k] - rho[k] for k in range(n))
        if any(sum(beta[: k + 1]) < 0 for k in range(n)):
            continue
        for size, c in pq(0, beta).items():
            out[size] = out.get(size, 0) + sign * c
    return {d: c for d, c in out.items() if c}


def test_gl_oracle_known_values():
    assert gl_q_analogue((2,), (1, 1)) == {1: 1}
    assert gl_q_analogue((2, 1), (1, 1, 1)) == {1: 1, 2: 1}
    assert gl_q_analogue((3,), (1, 1, 1)) == {3: 1}
    assert gl_q_analogue((2, 2), (1, 1, 1, 1)) == {2: 1, 4: 1}
    assert gl_q_analogue((2, 1), (2, 1)) == {0: 1}


def test_equal_weight_reduces_to_type_a():
    for kind in "BCD":
        for lam in enumerate_partitions(5):
            for mu in enumerate_partitions(weight(lam), exact_weight=weight(lam)):
                n = max(len(lam), len(mu), 2)
                if kind == "D":
                    n = max(n, len(lam) + 1)  # keep clear of mirror weights
                rs = RootSystem(kind, n)
                if n > 4:
                    continue
                assert k_direct(rs, lam, mu).coeffs == gl_q_analogue(lam, mu), (
                    kind,
                    lam,
                    mu,
                )
