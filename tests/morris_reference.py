"""A Morris reference for the tests: one family's stable step, built on
its own as `qweyl.recurrence._morris_step` was before the so and sp
steps shared one table."""

from qweyl.partitions import weight
from qweyl.pieri import pieri_expand
from qweyl.recurrence import _step


def morris_step_per_family(family, nu, mu1):
    """The terms (factor, |factor|, shift, lam, |lam|) of the stable step
    for K_{nu,mu} in one family, mu_1 = mu1, without the self-term for
    mu = empty."""
    terms = []
    for sign, shifts, gamma, r in _step(nu, mu1):
        shift = shifts[family == "sp"]
        for lam, pc in pieri_expand(gamma, r).items():
            if not mu1 and lam == nu:
                continue
            factor = sign * pc
            terms.append((factor, abs(factor), shift, lam, weight(lam)))
    return tuple(terms)
