"""
qweyl benchmark runner.

    python3 bench/run.py --workload stable-table --seed 1 --seconds 30 --trace 0

Draws the workload's queries from --seed, then runs them again and again,
each time in a fresh worker interpreter with empty memo tables, until
--seconds have passed.  Every output is checked against the pinned
reference in bench/reference/.  wall_s is each pass's query time scaled
by the machine speed measured during it (see speed.py).  Prints one
line of run metadata, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced workers and
reports the per-layer metrics.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import speed  # noqa: E402
import workloads  # noqa: E402

# extra spawn-and-import-only workers for setup_s, spread over the run
PROBES_AT_START, PROBES_PER_PASS = 5, 3
WORKER_TIMEOUT_S = 150
# wall_s and setup_s are times at a fixed machine speed: the one at
# which speed.calibration_unit() takes PROBE_REF_S (about its time on a
# quiet 2.1 GHz Xeon, Python 3.11).  See "Noise" in README.md.
PROBE_REF_S = 0.0006

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER = {
    "rootsystems.weyl_elements": "count",
    "rootsystems.dot_action_calls": "count",
    "rootsystems.rho_doubled_calls": "count",
    "rootsystems.self_s": "s",
    "qkostant.k_direct_calls": "count",
    "qkostant.k_direct_self_s": "s",
    "qkostant.pq_terms": "count",
    "qkostant.pq_live": "count",
    "qkostant.pq_live_ratio": "ratio",
    "qkostant.pq_s": "s",
    "qkostant.pq_memo_entries": "count",
    "recurrence.k_finite_self_s": "s",
    "branching.sym_finite_self_s": "s",
    "recurrence.k_limit_calls": "count",
    "recurrence.k_limit_distinct": "count",
    "recurrence.k_limit_self_s": "s",
    "pieri.expand_calls": "count",
    "pieri.expand_self_s": "s",
    "qseries.ops": "count",
    "qseries.self_s": "s",
    "hall_littlewood.k_matrix_s": "s",
    "hall_littlewood.inverse_self_s": "s",
    "lr.coefficient_calls": "count",
    "lr.coefficient_self_s": "s",
    "lr.cache_entries": "count",
    "lr.cache_hits": "count",
    "branching.branching_calls": "count",
    "branching.stable_self_s": "s",
    "cache.save_s": "s",
    "cache.load_s": "s",
    "cache.bytes": "B",
    "cache.warm_wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def run_worker(job):
    """Spawn a cold worker and run `job` in it (None: set up and exit).

    Returns (set-up seconds at the PROBE_REF_S machine speed, raw
    seconds from spawn to `import qweyl` done, result or None).  The
    machine's speed is probed here just before the spawn and just after
    the worker is ready, while it waits for its job.
    """
    env = dict(os.environ)
    env.pop("QWEYL_CACHE", None)  # a developer's cache must not warm the run
    speed_before = speed.probe_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), ROOT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env,
    )
    try:
        ready = proc.stdout.readline()
        raw_setup_s = time.perf_counter() - t0
        setup_probe_s = (speed_before + speed.probe_s()) / 2
        payload = b"" if job is None else json.dumps(job).encode()
        out, err = proc.communicate(payload, timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit {proc.returncode}): {err.decode(errors='replace')}")
    setup_s = raw_setup_s * PROBE_REF_S / setup_probe_s
    return setup_s, raw_setup_s, (json.loads(out) if job is not None else None)


def speed_normalised_wall(res) -> float:
    """The pass's query seconds scaled to the PROBE_REF_S machine speed."""
    return res["wall_s"] * PROBE_REF_S / res["probe_s"]


def count_wrong(queries, outputs, reference) -> int:
    if len(outputs) != len(queries):
        raise WorkerError(f"{len(outputs)} outputs for {len(queries)} queries")
    return sum(out != reference[workloads.key(q)] for q, out in zip(queries, outputs))


def load_reference(workload: str) -> dict:
    with open(os.path.join(BENCH, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/qweyl/*.py, which identifies the code when no git is present."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qweyl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "qweyl")):
        sys.exit(f"no qweyl sources under {os.path.join(ROOT, 'src')}")

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_hash(), "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
    }
    queries = workloads.sample(args.workload, args.seed)
    reference = load_reference(args.workload)
    os.makedirs(OUT, exist_ok=True)
    job = {"queries": queries, "trace": False}
    traced_job = dict(job, trace=True,
                      spans_path=os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    attempted = failed = 0

    def timed_pass(j):
        nonlocal attempted, failed
        *setup, res = run_worker(j)
        attempted += len(queries)
        failed += count_wrong(queries, res.pop("outputs"), reference)
        return setup, res

    def probes(n):
        return [run_worker(None)[:2] for _ in range(n)]

    start = time.perf_counter()
    setups = probes(PROBES_AT_START)
    plain, traced = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cache_path = os.path.join(tmp, "qweyl.cache")
        want_cache = args.trace == 1 and args.workload == "stable-table"
        while True:
            t0 = time.perf_counter()
            j = dict(job, save_cache=cache_path) if want_cache and not plain else job
            setup, res = timed_pass(j)
            setups.append(setup)
            plain.append(res)
            if args.trace:
                traced.append(timed_pass(traced_job)[1])
            setups += probes(PROBES_PER_PASS)
            now = time.perf_counter()
            # stop before a further pass would run past --seconds
            if now - start + (now - t0) > args.seconds:
                break
        warm = timed_pass(dict(job, load_cache=cache_path))[1] if want_cache else None

    raw_walls = [r["wall_s"] for r in plain]
    walls = [speed_normalised_wall(r) for r in plain]
    meta.update(queries=len(queries), passes=len(plain), wall_s_samples=walls,
                raw_wall_s_samples=raw_walls, probe_s_samples=[r["probe_s"] for r in plain],
                speed_probes=sum(r["probes"] for r in plain), setup_s_samples=len(setups),
                raw_setup_s_median=statistics.median(raw for _, raw in setups))
    if args.trace:
        # one consistent set of layer numbers: those of the median traced pass
        middle = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = dict(middle["layers"])
        # traced passes run no speed probe, so this compares raw query seconds
        metrics["trace.overhead_s"] = middle["wall_s"] - statistics.median(raw_walls)
        metrics["cache.save_s"] = plain[0].get("cache_save_s", 0.0)
        metrics["cache.bytes"] = plain[0].get("cache_bytes", 0)
        metrics["cache.load_s"] = warm["cache_load_s"] if warm else 0.0
        metrics["cache.warm_wall_s"] = warm["wall_s"] if warm else 0.0
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
