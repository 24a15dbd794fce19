"""
Query grids of the three benchmark workloads, seeded sampling, and the
execution of one query against qweyl.

A query is a JSON list whose first element names the qweyl entry point.
The grids are built here with the benchmark's own partition code, so a
change to qweyl.partitions cannot change which inputs a seed selects.
"""

import json
import math
import random
import sys

WORKLOADS = ("stable-table", "finite-direct", "finite-recurrence")

# stable-table: the `qweyl table` grid, the P-basis matrices, the stable harmonics
TABLE_WEIGHT, TABLE_TRUNC = 10, 6
PBASIS_WEIGHT, PBASIS_TRUNC = 10, 4
HARMONIC_MAX_K, HARMONIC_WEIGHT = 8, 12
# finite-direct: k_direct over dominated pairs with |nu| <= 3
DIRECT_RANKS, DIRECT_WEIGHT = (4, 5, 6), 3
DIRECT_PER_STRATUM = {4: 9, 5: 3, 6: 0}  # queries drawn per (type, rank)
# Every seed also runs B5 and B6 at (3) over (): the cells with the largest
# P_q fill of their rank (B6: ~73k memo entries, ~14 MB), which cover nearly
# all that the other cells of their table fill.  So the P_q fill, and with it
# peak_rss_mb, does not hinge on a random draw.  Rank 6 enters only through
# B6: one query of rank 6 costs more than all draws of ranks 4 and 5.
DIRECT_ANCHORS = (["k_direct", "B", 5, [3], []], ["k_direct", "B", 6, [3], []])
# finite-recurrence: the rank-lowering recurrence and S^k(g) peeling
RECURRENCE_RANKS, RECURRENCE_WEIGHT = (3, 4, 5, 6, 7), 5
HARMONIC_FINITE_RANKS, HARMONIC_FINITE_MAX_K = (3, 4), 3
# Share of each stratum a seed draws (finite-direct draws fixed counts).
# The recurrence reuses sub-results across cells, so its work per pass
# depends on which cells meet; drawing 3/4 of them keeps that within a few
# percent across seeds.
SAMPLE_SHARE = {"stable-table": 0.5, "finite-recurrence": 0.75}


def partitions(max_weight: int) -> list[tuple[int, ...]]:
    """Partitions of weight <= max_weight, by weight, then reverse-lex."""
    def of(k, cap):
        if k == 0:
            yield ()
            return
        for first in range(min(k, cap), 0, -1):
            for rest in of(k - first, first):
                yield (first,) + rest

    return [p for k in range(max_weight + 1) for p in of(k, k)]


def dominates(p, q) -> bool:
    s = t = 0
    for i in range(max(len(p), len(q))):
        s += p[i] if i < len(p) else 0
        t += q[i] if i < len(q) else 0
        if s < t:
            return False
    return True


def _dominated_pairs(max_weight: int, same_parity: bool):
    for nu in partitions(max_weight):
        for mu in partitions(sum(nu)):
            if dominates(nu, mu) and not (same_parity and (sum(nu) - sum(mu)) % 2):
                yield list(nu), list(mu)


def strata(workload: str) -> dict[str, list[list]]:
    """The workload's whole input grid, split into strata of similar cost."""
    out: dict[str, list[list]] = {}

    def add(stratum, query):
        out.setdefault(stratum, []).append(query)

    if workload == "stable-table":
        for fam in ("so", "sp"):
            for nu, mu in _dominated_pairs(TABLE_WEIGHT, same_parity=True):
                add(f"k_limit/{fam}/{sum(nu)}", ["k_limit", fam, nu, mu, TABLE_TRUNC])
            add(f"p_basis_matrix/{fam}", ["p_basis_matrix", fam, PBASIS_WEIGHT, PBASIS_TRUNC])
            for k in range(HARMONIC_MAX_K + 1):
                for lam in partitions(HARMONIC_WEIGHT):
                    add(f"harmonic_coeff_stable/{fam}/{k}",
                        ["harmonic_coeff_stable", fam, k, list(lam)])
    elif workload == "finite-direct":
        for rank in DIRECT_RANKS:
            for kind in "BCD":
                for nu, mu in _dominated_pairs(DIRECT_WEIGHT, same_parity=False):
                    query = ["k_direct", kind, rank, nu, mu]
                    add("k_direct/anchors" if query in DIRECT_ANCHORS else f"k_direct/{kind}{rank}",
                        query)
    elif workload == "finite-recurrence":
        for rank in RECURRENCE_RANKS:
            for kind in "BCD":
                for nu, mu in _dominated_pairs(RECURRENCE_WEIGHT, same_parity=False):
                    if max(len(nu), len(mu)) <= rank:
                        add(f"k_recurrence_finite/{kind}{rank}",
                            ["k_recurrence_finite", kind, rank, nu, mu])
        for rank in HARMONIC_FINITE_RANKS:
            for kind in "BCD":
                for k in range(HARMONIC_FINITE_MAX_K + 1):
                    # one stratum per cell: the k = 3 cells dominate the cost
                    add(f"harmonic_char_finite/{kind}{rank}/{k}",
                        ["harmonic_char_finite", kind, rank, k])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _draw_count(workload: str, stratum: str, size: int) -> int:
    if workload == "finite-direct":
        return size if stratum == "k_direct/anchors" else DIRECT_PER_STRATUM[int(stratum[-1])]
    return math.ceil(SAMPLE_SHARE[workload] * size)


def sample(workload: str, seed: int) -> list[list]:
    """The fixed-size, seed-drawn sample of the grid, in seed-drawn order.

    Every stratum contributes the same number of queries for every seed,
    so seeds differ in which cells they hit, not in how many of each kind.
    """
    rng = random.Random(f"{workload}/{seed}")
    queries: list[list] = []
    for name, cells in sorted(strata(workload).items()):
        queries.extend(rng.sample(cells, _draw_count(workload, name, len(cells))))
    rng.shuffle(queries)
    return queries


def key(query: list) -> str:
    """The query's key in the pinned reference."""
    return json.dumps(query, separators=(",", ":"))


def _pairs(series) -> list:
    return [list(p) for p in series.pairs()]


def execute(query: list):
    """Run one query through qweyl and return its output in JSON form.

    Entry points are looked up on their modules at call time, so wrappers
    bound by the tracer are the ones called.
    """
    import qweyl  # noqa: F401  (loads every submodule)

    # sys.modules, not `from qweyl import ...`: qweyl re-exports a function
    # named `branching` that hides the submodule of that name
    mod = lambda name: sys.modules[f"qweyl.{name}"]  # noqa: E731
    op, *args = query
    if op == "k_limit":
        fam, nu, mu, trunc = args
        return _pairs(mod("recurrence").k_limit(fam, tuple(nu), tuple(mu), trunc))
    if op == "p_basis_matrix":
        matrix = mod("hall_littlewood").p_basis_matrix(*args)
        return [[list(lam), list(mu), _pairs(s)] for (lam, mu), s in sorted(matrix.entries.items())]
    if op == "harmonic_coeff_stable":
        fam, k, lam = args
        return mod("branching").harmonic_coeff_stable(fam, k, tuple(lam))
    if op in ("k_direct", "k_recurrence_finite"):
        kind, rank, nu, mu = args
        fn = mod("qkostant").k_direct if op == "k_direct" else mod("recurrence").k_recurrence_finite
        return _pairs(fn(qweyl.RootSystem(kind, rank), tuple(nu), tuple(mu)))
    if op == "harmonic_char_finite":
        kind, rank, k = args
        exp = mod("branching").harmonic_char_finite(qweyl.RootSystem(kind, rank), k)
        return [exp.basis, exp.rank, [[list(lam), _pairs(s)] for lam, s in sorted(exp.terms.items())]]
    raise ValueError(f"unknown query {op!r}")
