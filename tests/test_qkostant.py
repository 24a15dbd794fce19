"""q-Kostant partition function and the direct alternating sum.

Oracles here are deliberately independent: P_q is checked against naive
multiset enumeration, and the |lambda| = |mu| reduction is checked
against a self-contained type-A (general linear) alternating sum that
shares nothing with the B/C/D machinery.
"""

from itertools import permutations

import pytest

from qweyl.partitions import dominates, enumerate_partitions, padded, weight
from qweyl.qkostant import k_direct, q_kostant, weight_multiplicity
from qweyl.qseries import QSeries
from qweyl.rootsystems import RootSystem, positive_roots


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
