"""
Stable Pieri coefficients: the rank- and type-independent multiplicity of
V(lambda) in V(gamma) (x) V(l) for the orthogonal/symplectic series.

p^lambda_{gamma,l} counts partitions alpha contained in both gamma and
lambda such that gamma/alpha and lambda/alpha are horizontal strips with
|gamma/alpha| + |lambda/alpha| = l (remove a strip, then add one).  At
top degree |lambda| = |gamma| + l this reduces to the classical Pieri
rule.

pieri_expand is memoised by (gamma, l) through functools.cache on its
body, and the pointwise stable_pieri reads the same table.
"""

__all__ = ["stable_pieri", "pieri_expand"]

from functools import cache

from .partitions import (Partition, _added_strips, _removed_strips, check_bound,
                         check_partition, weight)


def stable_pieri(gamma: Partition, l: int, lam: Partition) -> int:
    """The stable Pieri coefficient p^lam_{gamma,l}."""
    check_bound(l, "l")
    gamma, lam = check_partition(gamma), check_partition(lam)
    drop = weight(gamma) + l - weight(lam)
    if drop < 0 or drop % 2:
        return 0
    return dict(_pieri_support(gamma, l)).get(lam, 0)


def pieri_expand(gamma: Partition, l: int) -> dict[Partition, int]:
    """Full support {lam: p^lam_{gamma,l}} of V(gamma) (x) V(l)."""
    check_bound(l, "l")
    # a fresh dict per call, so a caller cannot corrupt the memo
    return dict(_pieri_support(check_partition(gamma), l))


@cache
def _pieri_support(gamma: Partition, l: int) -> tuple[tuple[Partition, int], ...]:
    # the key is already a valid partition, so the strips need no check
    out: dict[Partition, int] = {}
    for removed in range(min(l, weight(gamma)) + 1):
        for alpha in _removed_strips(gamma, removed):
            for lam in _added_strips(alpha, l - removed):
                out[lam] = out.get(lam, 0) + 1
    return tuple(out.items())
