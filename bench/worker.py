"""
One cold qweyl process: import qweyl, report readiness, run one job.

Usage: python3 bench/worker.py REPO_ROOT

The worker imports qweyl from REPO_ROOT/src, then writes "ready" on
stdout; the spawn-to-ready time is the set-up a `qweyl` command pays.
It then reads one JSON job from stdin (empty input: exit at once), runs
its queries back to back and writes one JSON result on stdout.

Untraced jobs also measure the machine's speed while the queries run
(see speed.py); traced jobs do not, so that no probe time lands in a
span.
"""

import os
import sys


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).

    Not ru_maxrss: Linux carries the parent's peak into a child across
    fork and exec, so ru_maxrss would report the runner's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src = os.path.join(os.path.abspath(sys.argv[1]), "src")
    sys.path.insert(0, src)
    import qweyl  # the measured set-up: nothing else is imported before it

    if not os.path.abspath(qweyl.__file__).startswith(src + os.sep):
        sys.exit(f"qweyl imported from {qweyl.__file__}, not from {src}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import json
    import time

    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from speed import SpeedProbe
    from qweyl.cache import cache_load, cache_save
    from qweyl.lr import lr_cache_stats

    text = sys.stdin.read()
    if not text.strip():
        return 0
    job = json.loads(text)
    result = {}
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if job.get("load_cache"):
        t0 = time.perf_counter()
        cache_load(job["load_cache"])
        result["cache_load_s"] = time.perf_counter() - t0
    elif lr_cache_stats() != (0, 0):
        # a cache file or an earlier run in this interpreter would warm the run
        raise RuntimeError(f"memo tables not cold: lr_cache_stats()={lr_cache_stats()}")

    probe = None if job["trace"] else SpeedProbe()
    if probe is not None:
        probe.start()
    outputs = []
    t0 = time.perf_counter()
    for query in job["queries"]:
        try:
            outputs.append(workloads.execute(query))
        except Exception as exc:  # counted as a failed query by run.py
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
    if probe is not None:
        probe.stop()  # before the clock is read, so every probe is in probe.spent
    result["wall_s"] = time.perf_counter() - t0
    if probe is not None:
        result["wall_s"] -= probe.spent
        result["probe_s"] = sum(probe.samples) / len(probe.samples)
        result["probes"] = len(probe.samples)
    result["peak_rss_mb"] = peak_rss_mb()
    result["outputs"] = outputs

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["spans_path"])
    if job.get("save_cache"):
        t0 = time.perf_counter()
        cache_save(job["save_cache"])
        result["cache_save_s"] = time.perf_counter() - t0
        result["cache_bytes"] = os.path.getsize(job["save_cache"])
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
