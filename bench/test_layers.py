"""
Checks of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest bench -q

Runs one traced pass of every workload (about a minute) and checks that
each per-layer counter is nonzero on the workload meant to exercise it
and exactly zero where the layer is bypassed.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import run
import speed
import workloads
from tracer import Tracer

ROOTSYSTEMS_QKOSTANT = [n for n in run.PER_LAYER if n.startswith(("rootsystems.", "qkostant."))]
LR_PIERI = [n for n in run.PER_LAYER if n.startswith(("lr.", "pieri."))]
FINITE_RECURRENCE = ["recurrence.k_finite_self_s", "branching.sym_finite_self_s"]
# every remaining counter belongs to the stable side; the tracer's own
# overhead is a difference of two timings and no layer's counter
STABLE = [n for n in run.PER_LAYER
          if n not in ROOTSYSTEMS_QKOSTANT + FINITE_RECURRENCE + ["trace.overhead_s"]]

EXERCISED = {
    "stable-table": STABLE,
    "finite-direct": ROOTSYSTEMS_QKOSTANT,
    "finite-recurrence": FINITE_RECURRENCE,
}
BYPASSED = {
    "stable-table": ROOTSYSTEMS_QKOSTANT,
    "finite-direct": LR_PIERI,
}


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        out[workload] = json.loads(proc.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_correct_and_complete(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exercised_counters_are_nonzero(traced, workload):
    metrics = traced[workload]["metrics"]
    zero = [n for n in EXERCISED[workload] if metrics[n]["value"] == 0]
    assert not zero, f"{workload}: zero although exercised: {zero}"


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_bypassed_counters_are_zero(traced, workload):
    metrics = traced[workload]["metrics"]
    nonzero = {n: metrics[n]["value"] for n in BYPASSED[workload] if metrics[n]["value"] != 0}
    assert not nonzero, f"{workload}: nonzero although bypassed: {nonzero}"


def test_wrappers_are_bound_at_every_call_site():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import qweyl  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(orig) for _, _, orig in tracer._undo}
        stale = [
            f"{name}.{attr}"
            for name, mod in sys.modules.items() if name.split(".")[0] == "qweyl"
            for attr, val in vars(mod).items() if id(val) in originals
        ]
        assert not stale, f"unwrapped names left: {stale}"
        assert all(getattr(obj, attr) is not orig for obj, attr, orig in tracer._undo)
    finally:
        tracer.uninstall()
    assert all(getattr(obj, attr) is orig for obj, attr, orig in tracer._undo)


def test_speed_probe_leaves_no_timer_armed():
    # A SIGALRM that arrives just before stop() is handled just after it.
    # Its handler must not re-arm the timer: the next signal would meet the
    # default handler and kill the worker.
    probe = speed.SpeedProbe()
    probe.start()
    probe.stop()
    probe._fire(signal.SIGALRM, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples


def test_sample_is_fixed_by_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.sample(workload, 7), workloads.sample(workload, 8)
        assert a == workloads.sample(workload, 7)
        assert a != b and len(a) == len(b)
        reference = run.load_reference(workload)
        assert all(workloads.key(q) in reference for q in a)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
