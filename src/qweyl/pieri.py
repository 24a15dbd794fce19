"""
Stable Pieri coefficients: the rank- and type-independent multiplicity of
V(lambda) in V(gamma) (x) V(l) for the orthogonal/symplectic series.

p^lambda_{gamma,l} counts partitions alpha contained in both gamma and
lambda such that gamma/alpha and lambda/alpha are horizontal strips with
|gamma/alpha| + |lambda/alpha| = l (remove a strip, then add one).  At
top degree |lambda| = |gamma| + l this reduces to the classical Pieri
rule.
"""

__all__ = ["stable_pieri", "pieri_expand"]

from .partitions import (
    Partition,
    add_horizontal_strips,
    check_partition,
    is_horizontal_strip,
    remove_horizontal_strips,
    weight,
)

_memo: dict[tuple[Partition, int, Partition], int] = {}


def stable_pieri(gamma: Partition, l: int, lam: Partition) -> int:
    """The stable Pieri coefficient p^lam_{gamma,l}."""
    if l < 0:
        raise ValueError("l must be >= 0")
    gamma, lam = check_partition(gamma), check_partition(lam)
    drop = weight(gamma) + l - weight(lam)
    if drop < 0 or drop % 2:
        return 0
    key = (gamma, l, lam)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    # |gamma/alpha| is forced: removing r and adding l-r changes the
    # weight by l-2r, so r = (|gamma| + l - |lam|) / 2
    removed = drop // 2
    count = 0
    if removed <= min(l, weight(gamma)):
        for alpha in remove_horizontal_strips(gamma, removed):
            if is_horizontal_strip(alpha, lam):
                count += 1
    _memo[key] = count
    return count


def pieri_expand(gamma: Partition, l: int) -> dict[Partition, int]:
    """Full support {lam: p^lam_{gamma,l}} of V(gamma) (x) V(l)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    gamma = check_partition(gamma)
    out: dict[Partition, int] = {}
    for removed in range(min(l, weight(gamma)) + 1):
        added = l - removed
        for alpha in remove_horizontal_strips(gamma, removed):
            for lam in add_horizontal_strips(alpha, added):
                out[lam] = out.get(lam, 0) + 1
    return out
