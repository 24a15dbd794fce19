"""A Littlewood reference for the tests: the stable sp multiplicities of
S^k(g) as the direct sp sum, which `qweyl.branching._sym_mult` no longer
runs (it reads sp from so at the conjugate partition)."""

from qweyl.branching import branching
from qweyl.partitions import enumerate_partitions


def sym_mult_sp_direct(k, lam):
    """Stable multiplicity of V(lam) in S^k(sp): S(S^2 V) holds each
    gl-module V(nu) with nu even-row once, so the multiplicity is the sum
    over even-row nu of weight 2k of branching("sp", nu, lam)."""
    return sum(
        branching("sp", nu, lam)
        for nu in enumerate_partitions(2 * k, "even_rows", exact_weight=2 * k)
    )
