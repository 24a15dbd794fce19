"""
Write the pinned reference: the output of every grid cell of every
workload, computed by the current qweyl in src/.

    python3 bench/pin.py

Before writing, it checks that k_direct and k_recurrence_finite agree on
every cell both finite workloads reach.  The reference is pinned as
computed, including K_{(1),0}(q) = q^n for so(2n+1), which the test suite
keeps as a strict expected failure.  Re-pin only when an output is meant
to change, and say why in the change that does it.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(1, BENCH)

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for workload in workloads.WORKLOADS:
        refs[workload] = {
            workloads.key(q): json.loads(json.dumps(workloads.execute(q)))
            for cells in workloads.strata(workload).values()
            for q in cells
        }
    recurrence = refs["finite-recurrence"]
    shared = 0
    for k, direct in refs["finite-direct"].items():
        other = recurrence.get(k.replace('["k_direct"', '["k_recurrence_finite"', 1))
        if other is None:
            continue
        shared += 1
        if other != direct:
            sys.exit(f"k_direct and k_recurrence_finite disagree on {k}: {direct} != {other}")
    print(f"k_direct == k_recurrence_finite on {shared} shared cells")
    for workload, ref in refs.items():
        path = os.path.join(BENCH, "reference", f"{workload}.json")
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                for k, v in sorted(ref.items())) + "\n}\n")
        print(f"{path}: {len(ref)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
