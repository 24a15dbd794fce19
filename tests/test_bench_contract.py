"""The benchmark under bench/ drives qweyl through fixed names: the
functions and methods its tracer wraps, the names its scripts import, and
the entry points its workloads call.  Each must still resolve, so that a
library rename fails here and not only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
