"""The benchmark under bench/ drives qweyl through fixed names: the
functions and methods its tracer wraps, the names its scripts import, and
the entry points its workloads call.  Each must still resolve, and the
stable-table queries must still reach every layer the tracer counts, so
that a library rename or a call routed around a traced name fails here
and not only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


def _qweyl(module: str):
    return importlib.import_module(f"qweyl.{module}" if module else "qweyl")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_tracer_wraps_resolves():
    tracer = _tracer()
    for module, attr, _ in tracer._FUNCTIONS:
        assert callable(getattr(_qweyl(module), attr, None)), f"{module}.{attr}"
    for module, cls, attr in tracer._METHODS:
        # the tracer reads the method from the class dict, not by lookup
        assert attr in vars(getattr(_qweyl(module), cls)), f"{module}.{cls}.{attr}"
    for dotted in tracer._ROOTSYSTEMS:
        module, *path = dotted.split(".")
        obj = _qweyl(module)
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), dotted
    # its wrapper consumes weyl_iter one element at a time
    assert inspect.isgeneratorfunction(_qweyl("rootsystems").weyl_iter)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_qweyl_import_in_bench_resolves():
    seen = 0
    for path in sorted(BENCH.glob("*.py")):
        name = path.name
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qweyl":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
                    seen += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "qweyl":
                assert hasattr(_qweyl(""), node.attr), f"{name}: qweyl.{node.attr}"
                seen += 1
    assert seen


def test_every_workload_entry_point_resolves():
    # workloads.py looks entry points up as mod("<module>").<name>
    calls = [
        (node.value.args[0].value, node.attr)
        for node in ast.walk(_tree(BENCH / "workloads.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name) and node.value.func.id == "mod"
    ]
    assert len(calls) >= 6
    for module, attr in calls:
        assert callable(getattr(_qweyl(module), attr, None)), f"{module}.{attr}"


# One cold stable-table query of each kind, run under the benchmark's tracer
# in a fresh interpreter: the tracer counts a call only when it goes through
# the module attribute it rebinds, so a call routed around the name reads 0.
_STABLE_CALLS = """
import json, sys
import qweyl
from tracer import Tracer
tracer = Tracer()
tracer.install()
mod = lambda name: sys.modules["qweyl." + name]
mod("recurrence").k_limit("so", (2, 1), (), 6)
mod("hall_littlewood").p_basis_matrix("sp", 4, 2)
mod("branching").harmonic_coeff_stable("so", 4, (2,))
print(json.dumps(tracer.count))
"""
# the traced counters that bench/test_layers.py requires to be nonzero on
# the stable-table workload, by the tracer's name for them
_STABLE_REACHED = ("pieri.pieri_expand", "qseries.QSeries.div_one_minus_qm",
                   "hall_littlewood.k_matrix", "lr.lr_coefficient", "branching.branching")


def test_cold_stable_queries_reach_every_traced_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", _STABLE_CALLS], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    count = json.loads(proc.stdout)
    missed = [name for name in _STABLE_REACHED if not count.get(name)]
    assert not missed, (missed, count)
