"""What a fresh `qweyl` process pays before it computes anything: the
modules `import qweyl` loads, and one cold command-line run."""

import os
import subprocess
import sys

from qweyl.recurrence import k_recurrence_finite
from qweyl.rootsystems import RootSystem

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# what dataclasses and a module-level `import ast` used to pull in; none of
# it is used at run time (cache_load imports ast when it is called)
NOT_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "copy", "linecache")
# the standard-library modules qweyl imports at module level, all of them
PRELOADED = ("collections.abc", "functools", "itertools", "math", "operator")


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run `python *args` with qweyl importable from src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120, check=False)


def _new_modules(preload: tuple[str, ...] = ()) -> set[str]:
    """The modules `import qweyl` adds to sys.modules of a fresh interpreter
    that has imported `preload` first."""
    code = "".join(f"import {name}\n" for name in preload) + (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qweyl\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_module_it_does_not_run():
    new = _new_modules()
    assert "qweyl" in new and "qweyl.cli" not in new
    assert not new & set(NOT_AT_IMPORT), sorted(new & set(NOT_AT_IMPORT))


def test_import_leaves_the_on_disk_cache_unloaded():
    # qweyl.cache is for library callers that import it; the package does not
    new = _new_modules()
    assert "qweyl.pieri" in new and "qweyl.lr" in new
    assert "qweyl.cache" not in new, sorted(name for name in new if name.startswith("qweyl"))


def test_import_adds_nothing_to_what_qweyl_imports():
    # with the modules qweyl imports preloaded, as site preloads some of
    # them, `import qweyl` adds no other module of the standard library
    outside = {name for name in _new_modules(PRELOADED) if name.split(".")[0] != "qweyl"}
    assert not outside, sorted(outside)


def test_cold_cli_run_prints_the_recurrence():
    proc = _fresh("-m", "qweyl.cli", "k", "--type", "B", "--rank", "6", "--lam", "2,1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == f"{k_recurrence_finite(RootSystem('B', 6), (2, 1), ())}\n"


def test_cold_text_mode_run_never_loads_json():
    # only --format json and verify print JSON, so they import it themselves
    proc = _fresh("-X", "importtime", "-m", "qweyl.cli", "k", "--type", "B", "--rank", "6",
                  "--lam", "2,1")
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"qweyl", "argparse"} <= loaded
    assert "json" not in loaded, sorted(loaded)
