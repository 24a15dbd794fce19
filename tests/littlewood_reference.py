"""Littlewood references for the tests: the stable multiplicities of
S^k(g) as the direct sums over every nu of the family's class, and the
stable harmonic coefficients as the whole Euler sum over them.  The
library prunes both: `qweyl.branching._sym_mult` reads sp from so at the
conjugate partition and sums only over the nu that contain lam, and it
and `harmonic_coeff_stable` skip every term outside the support (|lam|
odd or above 2(k - j); in _sym_mult also no even-column nu of weight 2k
containing lam)."""

from qweyl.branching import branching, euler_factor_coeffs
from qweyl.partitions import enumerate_partitions

# S(S^2 V) holds each gl-module V(nu) with nu even-row once, S(Lambda^2 V)
# each one with nu even-column once
_NU_CLASS = {"so": "even_columns", "sp": "even_rows"}


def sym_mult_direct(family, k, lam):
    """Stable multiplicity of V(lam) in S^k(g): the sum over the nu of
    weight 2k of the family's class of branching(family, nu, lam)."""
    return sum(
        branching(family, nu, lam)
        for nu in enumerate_partitions(2 * k, _NU_CLASS[family], exact_weight=2 * k)
    )


def harmonic_coeff_direct(family, k, lam):
    """Coefficient of q^k s_lam in prod_{i>=1} (1 - q^{2i}) char_q(S(g)),
    summed over every degree j of the Euler factor."""
    factor = euler_factor_coeffs([2 * i for i in range(1, k // 2 + 1)], k)
    return sum(c * sym_mult_direct(family, k - j, lam) for j, c in factor.items())
