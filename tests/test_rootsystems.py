import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from qweyl.rootsystems import (
    RootSystem,
    SignedPermutation,
    check_dominant,
    diagram_flip,
    degrees,
    dot_action,
    exponents,
    positive_roots,
    rho,
    rho_doubled,
    weyl_dim,
    weyl_iter,
    weyl_order,
)
from qweyl import rootsystems
from qweyl.partitions import enumerate_partitions, padded
from qweyl.qkostant import k_direct
from qweyl.recurrence import degree_bounds, k_recurrence_finite
from weyl_reference import compose, dominant_dot, sign, whole_group


def test_validation():
    with pytest.raises(ValueError):
        RootSystem("A", 3)
    with pytest.raises(ValueError):
        RootSystem("B", 1)


def test_diagram_flip():
    assert diagram_flip("D", 3, (2, 1, 1)) == (2, 1, -1)
    assert diagram_flip("D", 3, (2, 1, -1)) == (2, 1, 1)
    # a shorter weight, types B and C, and the empty weight at rank 0 are fixed
    assert diagram_flip("D", 3, (2, 1)) == (2, 1)
    assert diagram_flip("B", 2, (1, 1)) == diagram_flip("C", 2, (1, 1)) == (1, 1)
    assert diagram_flip("D", 0, ()) == ()


def test_check_dominant_takes_a_mirror_as_the_flip_of_a_partition():
    D3 = RootSystem("D", 3)
    assert check_dominant(D3, (2, 1, -1)) == (2, 1, -1)
    assert check_dominant(D3, (2.0, 2, -2)) == (2, 2, -2)
    for bad in ((1, 0, -1), (1, 1, -2), (2, -1, -1), (1, -1), (1, 1, 1, -1)):
        with pytest.raises(ValueError):
            check_dominant(D3, bad)
    # only type D has mirror weights
    with pytest.raises(ValueError):
        check_dominant(RootSystem("B", 3), (2, 1, -1))
    # a tuple is memoised per (kind, rank): twice each, cold then warm,
    # with the same value, int parts and error message
    rootsystems._checked_dominant.cache_clear()
    B2, B3 = RootSystem("B", 2), RootSystem("B", 3)
    for _ in range(2):
        assert check_dominant(D3, (2, 1, -1)) == (2, 1, -1)
        assert check_dominant(D3, (2.0, True, -1)) == (2, 1, -1)
        assert all(type(x) is int for x in check_dominant(D3, (2.0, True, -1)))
        assert check_dominant(B3, (1, 1, 1)) == (1, 1, 1)
        for rs, w, message in (
            (B2, (1, 1, 1), "partition (1, 1, 1) longer than the rank of B2"),
            (D3, (1, 1, 1, 1), "partition (1, 1, 1, 1) longer than the rank of D3"),
            (D3, (1, 1, -2), "(1, 1, -2) is not a dominant weight of D3"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                check_dominant(rs, w)
        assert check_dominant(D3, [2, 1, -1]) == (2, 1, -1)
        with pytest.raises(TypeError):
            check_dominant(D3, ([1],))
        # a complex part equal to an int converts, as in check_partition;
        # any other complex part is a TypeError
        assert check_dominant(D3, (2 + 0j, 1, -1)) == (2, 1, -1)
        with pytest.raises(TypeError):
            check_dominant(D3, (2 + 1j, 1, -1))
    assert rootsystems._checked_dominant.cache_info().currsize == 2
    # in a box, a full-length weight with w_n < 0 is accepted exactly when
    # its flip is a partition
    for w in product(range(-3, 4), repeat=3):
        if w[-1] >= 0:
            continue
        flipped = w[:2] + (-w[2],)
        if all(a >= b for a, b in zip(flipped, flipped[1:])):
            assert check_dominant(D3, w) == w
        else:
            with pytest.raises(ValueError):
                check_dominant(D3, w)


def test_root_counts():
    assert len(positive_roots(RootSystem("B", 3))) == 9
    assert len(positive_roots(RootSystem("C", 3))) == 9
    assert len(positive_roots(RootSystem("D", 4))) == 12


def test_rho_values():
    assert rho_doubled(RootSystem("B", 2)) == (3, 1)  # (3/2, 1/2)
    assert rho(RootSystem("C", 2)) == (2, 1)
    assert rho(RootSystem("D", 4)) == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        rho(RootSystem("B", 3))  # half-integral


def test_weyl_orders():
    for rs, order in [
        (RootSystem("B", 2), 8),
        (RootSystem("C", 3), 48),
        (RootSystem("D", 4), 192),
    ]:
        group = whole_group(rs)
        assert len(set(group)) == order == weyl_order(rs)
        assert sum(map(sign, group)) == 0  # equally many of each sign


def test_signs_multiplicative():
    rs = RootSystem("B", 3)
    group = whole_group(rs)
    rng = random.Random(7)
    for _ in range(50):
        w, v = rng.choice(group), rng.choice(group)
        wv = compose(w, v)
        assert sign(wv) == sign(w) * sign(v)
        beta = tuple(rng.randrange(-4, 5) for _ in range(3))
        assert wv.act(beta) == w.act(v.act(beta))


def test_sign_matches_stated_iterator_sign():
    # mu far below every w(rho) - rho leaves every prefix sum positive, so
    # the walk prunes nothing: it must yield the whole group, once each,
    # with the sign of the parity reference
    for kind in "BCD":
        for n in range(2, 6):
            rs = RootSystem(kind, n)
            walked = list(weyl_iter(rs, (), (-2 * n,) * n))
            assert len(walked) == weyl_order(rs), rs
            assert dict(walked) == {w: sign(w) for w in whole_group(rs)}, rs


def test_dot_action():
    C2 = RootSystem("C", 2)
    # simple reflection swapping the two coordinates
    s1 = SignedPermutation((1, 0))
    assert dot_action(s1, (2, 0), C2) == (-1, 3)
    ident = SignedPermutation((0, 1))
    assert dot_action(ident, (2, 0), C2) == (2, 0)
    # w o lambda = lambda only for w = id when lambda + rho is regular
    fixed = [w for w in whole_group(C2) if dot_action(w, (2, 1), C2) == (2, 1)]
    assert len(fixed) == 1


def _strictly_dominant(kind, u):
    if any(a <= b for a, b in zip(u, u[1:-1])):
        return False
    if kind == "D":
        return u[-2] > abs(u[-1])
    return u[-2] > u[-1] > 0


def test_dominant_dot_against_full_group():
    # beta + rho over a box: on a wall no w makes w(beta + rho) strictly
    # dominant; otherwise exactly one does, with the returned sign
    seen = {"wall": 0, "zero_coordinate_d": 0, "regular": 0}
    for kind in "BCD":
        for n, radius in ((2, 3), (3, 3), (4, 2)):
            rs = RootSystem(kind, n)
            rd = rho_doubled(rs)
            group = [(w, sign(w)) for w in whole_group(rs)]
            for x in product(range(-radius, radius + 1), repeat=n):
                v = tuple(2 * a + r for a, r in zip(x, rd))
                sgn, lam = dominant_dot(rs, tuple(2 * a for a in x))
                hits = [(w.act(v), s) for w, s in group if _strictly_dominant(kind, w.act(v))]
                if not sgn:
                    assert hits == [] and lam == (), (rs, x)
                    seen["wall"] += 1
                    continue
                assert len(hits) == 1, (rs, x)
                u, s = hits[0]
                want = [(a - r) // 2 for a, r in zip(u, rd)]
                while want and want[-1] == 0:
                    want.pop()
                assert (sgn, lam) == (s, tuple(want)), (rs, x)
                seen["regular"] += 1
                if kind == "D" and 0 in v:
                    seen["zero_coordinate_d"] += 1
    assert all(seen.values()), seen


def test_degrees_and_exponents():
    assert degrees(RootSystem("B", 3)) == [2, 4, 6]
    assert degrees(RootSystem("C", 2)) == [2, 4]
    assert degrees(RootSystem("D", 4)) == [2, 4, 6, 4]
    for rs in (RootSystem("B", 4), RootSystem("C", 3), RootSystem("D", 4)):
        # sum of exponents = number of positive roots
        assert sum(exponents(rs)) == len(positive_roots(rs))


def test_weyl_dim():
    assert weyl_dim(RootSystem("B", 2), (1,)) == 5
    assert weyl_dim(RootSystem("C", 2), (1,)) == 4
    assert weyl_dim(RootSystem("C", 2), (2,)) == 10  # adjoint of sp4
    assert weyl_dim(RootSystem("B", 3), (1, 1)) == 21  # adjoint of so7
    assert weyl_dim(RootSystem("D", 4), (1,)) == 8
    assert weyl_dim(RootSystem("D", 4), (1, 1)) == 28
    assert weyl_dim(RootSystem("C", 3), ()) == 1


def _rho_by_root_sum(rs):
    """2 rho as the sum of the positive roots (doubled coordinates, halved)."""
    return tuple(sum(c) // 2 for c in zip(*positive_roots(rs)))


def _weyl_dim_by_root_products(rs, lam):
    """prod over the positive roots of <lam + rho, alpha> / <rho, alpha>."""
    rd = _rho_by_root_sum(rs)
    num = tuple(2 * a + r for a, r in zip(padded(lam, rs.rank), rd))
    val = Fraction(1)
    for alpha in positive_roots(rs):
        val *= Fraction(sum(a * b for a, b in zip(num, alpha)),
                        sum(a * b for a, b in zip(rd, alpha)))
    return val


def test_closed_form_root_data_equals_the_root_sums():
    # rho_doubled and weyl_dim read closed forms; the reference sums and
    # multiplies over positive_roots, mirror weights of type D included
    cells = 0
    for kind in "BCD":
        for n in range(2, 13):
            rs = RootSystem(kind, n)
            assert rho_doubled(rs) == _rho_by_root_sum(rs), rs
            weights = [p for p in enumerate_partitions(6) if len(p) <= n]
            if kind == "D":
                weights += [p[:-1] + (-p[-1],) for p in weights if len(p) == n]
            for lam in weights:
                assert weyl_dim(rs, lam) == _weyl_dim_by_root_products(rs, lam), (rs, lam)
                cells += 1
    assert cells > 800


def test_root_data_never_lists_the_roots(monkeypatch):
    # rank 2000 has 4,000,000 positive roots; the closed forms read none
    def refuse(rs):
        raise AssertionError(f"positive_roots({rs}) was called")

    monkeypatch.setattr(rootsystems, "positive_roots", refuse)
    rho_doubled.cache_clear()
    B2000 = RootSystem("B", 2000)
    assert degree_bounds(B2000, (2, 1), (1,)) == (1, 3999)
    assert weyl_dim(B2000, (1,)) == 4001
    assert weyl_dim(B2000, (1, 1)) == comb(4001, 2)  # the adjoint module
    assert weyl_dim(B2000, (3, 2, 1)) > weyl_dim(B2000, (1, 1))
    B4 = RootSystem("B", 4)
    assert k_direct(B4, (2, 1), (1,)) == k_recurrence_finite(B4, (2, 1), (1,))
    rho_doubled.cache_clear()


def test_algebra_names():
    assert RootSystem("B", 3).algebra == "so7"
    assert RootSystem("C", 2).algebra == "sp4"
    assert RootSystem("D", 4).algebra == "so8"
    assert RootSystem("B", 3).family == "so"
    assert RootSystem("C", 3).family == "sp"


def test_root_system_is_a_frozen_hashable_value():
    rs = RootSystem("B", 3)
    assert rs == RootSystem(kind="B", rank=3)
    assert rs != RootSystem("D", 3) and rs != RootSystem("B", 4) and rs != ("B", 3)
    # another class is left to decide, as with a dataclass
    assert rs.__eq__(("B", 3)) is NotImplemented
    assert hash(rs) == hash(RootSystem("B", 3))
    assert {rs: 1}[RootSystem("B", 3)] == 1
    assert repr(rs) == "RootSystem(kind='B', rank=3)" and str(rs) == "B3"
    for name, value in (("kind", "C"), ("rank", 4), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(rs, name, value)
    with pytest.raises(AttributeError):
        del rs.rank
    assert rs == RootSystem("B", 3)
    assert pickle.loads(pickle.dumps(rs)) == copy.deepcopy(rs) == rs
    # keyword construction validates as positional construction does
    for kwargs in ({"kind": "A", "rank": 3}, {"kind": "B", "rank": 1}):
        with pytest.raises(ValueError):
            RootSystem(**kwargs)
    with pytest.raises(TypeError):
        RootSystem("B")
    # rho_doubled is memoised on the root system: an equal one is a hit
    rho_doubled(RootSystem("C", 7))
    hits = rho_doubled.cache_info().hits
    assert rho_doubled(RootSystem("C", 7)) == (14, 12, 10, 8, 6, 4, 2)
    assert rho_doubled.cache_info().hits == hits + 1


def test_signed_permutation_is_a_frozen_hashable_value():
    w = SignedPermutation((1, 0, 2), frozenset({0}))
    assert w == SignedPermutation(perm=(1, 0, 2), flips=frozenset({0}))
    assert w != SignedPermutation((1, 0, 2)) and w != ((1, 0, 2), frozenset({0}))
    # flips defaults to the empty set
    assert SignedPermutation((1, 0)) == SignedPermutation((1, 0), frozenset())
    assert SignedPermutation(perm=(1, 0)).flips == frozenset()
    assert hash(w) == hash(SignedPermutation((1, 0, 2), frozenset({0})))
    assert len({w, SignedPermutation((1, 0, 2), frozenset({0})), SignedPermutation((1, 0, 2))}) == 2
    assert repr(w) == "SignedPermutation(perm=(1, 0, 2), flips=frozenset({0}))"
    assert repr(SignedPermutation((0,))) == "SignedPermutation(perm=(0,), flips=frozenset())"
    assert w.act((2, 4, 6)) == (4, -2, 6)
    assert pickle.loads(pickle.dumps(w)) == copy.copy(w) == w
    for name in ("perm", "flips"):
        with pytest.raises(AttributeError):
            setattr(w, name, ())
    # the benchmark's tracer wraps act in the class dict
    assert "act" in vars(SignedPermutation)
