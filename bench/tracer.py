"""
Spans and counters around qweyl's module boundaries, installed from
outside the library by rebinding names.

qweyl modules import each other's functions by name (`from .rootsystems
import dot_action, weyl_iter`), so a wrapper is bound in every qweyl
module namespace that holds the original function, not only in the
module that defines it.  Entry points record one span per call (name,
start, end, parent); per-element boundaries (Weyl elements, the dot
action, P_q lookups, QSeries arithmetic) only add to a count and a total,
since a finite-direct run makes ~10^5 of them per rank-6 query.

Self time is a call's duration minus the time its wrapped children
cover.  k_limit recurses into itself, so only self times add up.
"""

import itertools
import json
import sys
import time
from collections import defaultdict

_DONE = object()

# (module, attribute, records a span per call)
_FUNCTIONS = [
    ("rootsystems", "dot_action", False),
    ("rootsystems", "rho_doubled", False),
    ("rootsystems", "positive_roots", False),
    ("qkostant", "k_direct", True),
    ("recurrence", "k_limit", True),
    ("recurrence", "k_recurrence_finite", True),
    ("pieri", "pieri_expand", True),
    ("lr", "lr_coefficient", True),
    ("branching", "branching", True),
    ("branching", "sym_mult_stable", True),
    ("branching", "harmonic_coeff_stable", True),
    ("branching", "harmonic_char_finite", True),
    ("branching", "sym_decomposition_finite", True),
    ("hall_littlewood", "k_matrix", True),
    ("hall_littlewood", "p_basis_matrix", True),
]
# (module, class, method); all counted without spans
_METHODS = [
    ("rootsystems", "SignedPermutation", "act"),
    ("qkostant", "QKostantTable", "pq_coeffs"),
] + [
    ("qseries", "QSeries", op)
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "shift",
               "truncated", "div_one_minus_qm")
]
_ROOTSYSTEMS = ["rootsystems.weyl_iter", "rootsystems.dot_action", "rootsystems.rho_doubled",
                "rootsystems.positive_roots", "rootsystems.SignedPermutation.act"]


class Tracer:
    def __init__(self):
        self.stack: list[list[int]] = []  # per open call: [child ns, enclosing span id]
        self.spans: list[tuple] = []  # (id, name, start ns, end ns, parent id or 0)
        self.count: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.k_limit_keys: set = set()
        self.pq_live = 0
        self.pq_tables: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _open(self, span: bool) -> tuple:
        parent = self.stack[-1] if self.stack else None
        sid = next(self._ids) if span else (parent[1] if parent else 0)
        frame = [0, sid]
        self.stack.append(frame)
        return parent, frame, time.perf_counter_ns()

    def _close(self, name, span, parent, frame, start):
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - start
        if parent is not None:
            parent[0] += dur
        self.incl_ns[name] += dur
        self.self_ns[name] += dur - frame[0]
        if span:
            self.spans.append((frame[1], name, start, end, parent[1] if parent else 0))

    def _wrap(self, name, fn, span, note=None):
        def wrapper(*args, **kwargs):
            opened = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, span, *opened)
            self.count[name] += 1
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                opened = self._open(False)
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(name, False, *opened)
                if item is _DONE:
                    return
                self.count[name] += 1  # elements consumed, not calls
                yield item

        return wrapper

    def _note_k_limit(self, args, result):
        self.k_limit_keys.add(tuple(tuple(a) if isinstance(a, list) else a for a in args))

    def _note_pq(self, args, result):
        self.pq_tables[id(args[0])] = args[0]
        if result:
            self.pq_live += 1

    # -- installation -------------------------------------------------

    def _bind_everywhere(self, original, wrapper):
        """Rebind every qweyl module attribute that is `original`."""
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "qweyl" and not modname.startswith("qweyl."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere in qweyl")

    def install(self) -> None:
        import importlib

        notes = {"recurrence.k_limit": self._note_k_limit,
                 "qkostant.QKostantTable.pq_coeffs": self._note_pq}
        mod = lambda name: importlib.import_module(f"qweyl.{name}")  # noqa: E731
        rootsystems = mod("rootsystems")
        self._bind_everywhere(rootsystems.weyl_iter,
                              self._wrap_generator("rootsystems.weyl_iter", rootsystems.weyl_iter))
        for modname, attr, span in _FUNCTIONS:
            name = f"{modname}.{attr}"
            original = getattr(mod(modname), attr)
            self._bind_everywhere(original, self._wrap(name, original, span, notes.get(name)))
        for modname, clsname, attr in _METHODS:
            cls = getattr(mod(modname), clsname)
            name = f"{modname}.{clsname}.{attr}"
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original, False, notes.get(name)))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        from qweyl.lr import lr_cache_stats

        c, s, i = self.count, self.self_ns, self.incl_ns

        def sec(ns):
            return ns / 1e9

        pq = "qkostant.QKostantTable.pq_coeffs"
        qseries = [name for name in s if name.startswith("qseries.")]
        lr_entries, lr_hits = lr_cache_stats()
        return {
            "rootsystems.weyl_elements": c["rootsystems.weyl_iter"],
            "rootsystems.dot_action_calls": c["rootsystems.dot_action"],
            "rootsystems.rho_doubled_calls": c["rootsystems.rho_doubled"],
            "rootsystems.self_s": sec(sum(s[n] for n in _ROOTSYSTEMS)),
            "qkostant.k_direct_calls": c["qkostant.k_direct"],
            "qkostant.k_direct_self_s": sec(s["qkostant.k_direct"]),
            "qkostant.pq_terms": c[pq],
            "qkostant.pq_live": self.pq_live,
            "qkostant.pq_live_ratio": self.pq_live / c[pq] if c[pq] else 0.0,
            "qkostant.pq_s": sec(i[pq]),
            "qkostant.pq_memo_entries": sum(len(t.memo) for t in self.pq_tables.values()),
            "recurrence.k_finite_self_s": sec(s["recurrence.k_recurrence_finite"]),
            "branching.sym_finite_self_s": sec(s["branching.harmonic_char_finite"]
                                               + s["branching.sym_decomposition_finite"]),
            "recurrence.k_limit_calls": c["recurrence.k_limit"],
            "recurrence.k_limit_distinct": len(self.k_limit_keys),
            "recurrence.k_limit_self_s": sec(s["recurrence.k_limit"]),
            "pieri.expand_calls": c["pieri.pieri_expand"],
            "pieri.expand_self_s": sec(s["pieri.pieri_expand"]),
            "qseries.ops": sum(c[n] for n in qseries),
            "qseries.self_s": sec(sum(s[n] for n in qseries)),
            "hall_littlewood.k_matrix_s": sec(i["hall_littlewood.k_matrix"]),
            "hall_littlewood.inverse_self_s": sec(s["hall_littlewood.p_basis_matrix"]),
            "lr.coefficient_calls": c["lr.lr_coefficient"],
            "lr.coefficient_self_s": sec(s["lr.lr_coefficient"]),
            "lr.cache_entries": lr_entries,
            "lr.cache_hits": lr_hits,
            "branching.branching_calls": c["branching.branching"],
            "branching.stable_self_s": sec(s["branching.branching"] + s["branching.sym_mult_stable"]
                                           + s["branching.harmonic_coeff_stable"]),
        }

    def write_spans(self, path: str) -> None:
        """One JSON list per line: [id, name, start_ns, end_ns, parent_id]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
