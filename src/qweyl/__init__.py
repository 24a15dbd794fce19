"""
qweyl: exact graded multiplicities (Lusztig q-analogues) for the
classical root systems B/C/D, their rank-stable limit series, and the
associated stable Hall-Littlewood expansions.

Every quantity is computable along at least two independent paths (a
direct Weyl-group alternating sum, a Morris-type recurrence, and a
branching/harmonic route), which is what the test suite leans on.
"""

__version__ = "0.1.0"

from .partitions import Partition, conjugate, enumerate_partitions
from .qseries import QSeries
from .lr import lr_coefficient
from .rootsystems import RootSystem, weyl_dim
from .qkostant import k_direct, q_kostant, weight_multiplicity
from .branching import (
    branching,
    harmonic_char_finite,
    harmonic_coeff_stable,
    phi,
    sym_mult_finite,
    sym_mult_stable,
)
from .pieri import pieri_expand, stable_pieri
from .recurrence import (
    brylinski_dims,
    degree_bounds,
    k_limit,
    k_recurrence_finite,
)
from .hall_littlewood import k_matrix, p_basis_matrix, qprime_expansion

__all__ = [
    "Partition",
    "QSeries",
    "RootSystem",
    "branching",
    "brylinski_dims",
    "conjugate",
    "degree_bounds",
    "enumerate_partitions",
    "harmonic_char_finite",
    "harmonic_coeff_stable",
    "k_direct",
    "k_limit",
    "k_matrix",
    "k_recurrence_finite",
    "lr_coefficient",
    "p_basis_matrix",
    "phi",
    "pieri_expand",
    "q_kostant",
    "qprime_expansion",
    "stable_pieri",
    "sym_mult_finite",
    "sym_mult_stable",
    "weight_multiplicity",
    "weyl_dim",
]
