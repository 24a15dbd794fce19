"""
Command-line surface: compute single K-polynomials/series, bulk tables,
and run the cross-checking verification suites.

Partitions are passed as comma-separated parts ("2,1"); the empty string
is the empty partition.  Exit codes: 0 ok, 1 verification failure,
2 usage error or invalid input (one "error: ..." line on stderr).  The
command keeps no state between runs.
"""

__all__ = ["main"]

import argparse
import sys
import time

from . import __version__, lr
from .branching import harmonic_char_finite, harmonic_coeff_stable
from .partitions import (Partition, check_bound, check_partition, conjugate, dominates,
                         enumerate_partitions, weight)
from .qkostant import _direct_table, k_direct
from .qseries import QSeries
from .recurrence import degree_bounds, k_limit, k_recurrence_finite
from .rootsystems import RootSystem
from .hall_littlewood import k_matrix, p_basis_matrix

OK, VERIFY_FAILED, USAGE_ERROR = 0, 1, 2


def table_stats() -> dict[str, dict[str, int]]:
    """{table: {"hits", "misses", "size"}} for every process-wide memo table,
    reported in the JSON meta: one scan of the loaded qweyl modules finds
    each functools.cache function defined in its module and each MemoDict
    (lr.lr_cache), so a new table is reported with no edit here.  A table
    whose module attribute is rebound to a wrapper is not seen."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("qweyl."):
            continue
        for attr, obj in vars(module).items():
            name = f"{modname.removeprefix('qweyl.')}.{attr}"
            if isinstance(obj, lr.MemoDict):
                out[name] = {"hits": obj.hits, "misses": obj.misses, "size": len(obj)}
            elif hasattr(obj, "cache_info") and obj.__module__ == modname:
                info = obj.cache_info()
                out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        return check_partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _result(lam, mu, series: QSeries) -> dict:
    return {"lambda": list(lam), "mu": list(mu), "coeffs": series.pairs()}


def _emit_json(command: str, params: dict, results, t0: float, **meta) -> None:
    """Print one JSON object: the header on the first line, then one line
    per result as the iterable `results` yields it, so no list of results
    and no joined string is built.  `meta` adds keys beside `cache_stats`."""
    import json  # here, not at module level: text-mode runs never load it

    head = json.dumps(
        {
            "command": command,
            "params": params,
            "meta": {
                "versions": {"qweyl": __version__},
                "cache_stats": {"tables": table_stats()},
                "wall_ms": int((time.perf_counter() - t0) * 1000),
                **meta,
            },
        },
        sort_keys=True,
    )
    write = sys.stdout.write
    # "results" sorts after every header key
    write(f'{head[:-1]}, "results": [\n')
    sep = ""
    for r in results:
        write(sep + json.dumps(r, sort_keys=True))
        sep = ",\n"
    write("\n]}\n")


# -- k ------------------------------------------------------------------


def cmd_k(args) -> int:
    t0 = time.perf_counter()
    meta = {}
    if (args.family is None) == (args.type is None):
        raise ValueError("give exactly one of --family or --type/--rank")
    if args.family:
        if args.trunc is None:
            raise ValueError("--family needs --trunc (the series is infinite)")
        if args.rank is not None or args.method is not None:
            raise ValueError("--rank and --method apply only to --type")
        series = k_limit(args.family, args.lam, args.mu, args.trunc)
        params = {"family": args.family, "trunc": args.trunc}
    else:
        if args.rank is None:
            raise ValueError("--type needs --rank")
        if args.trunc is not None:
            raise ValueError("--trunc applies only to --family")
        rs = RootSystem(args.type, args.rank)
        method = args.method or "recurrence"
        if method == "direct":
            series = k_direct(rs, args.lam, args.mu)
            # P_q entries, of every rank, in the table k_direct read
            meta["pq_states"] = len(_direct_table(rs, args.lam, args.mu).memo)
        else:
            series = k_recurrence_finite(rs, args.lam, args.mu)
            meta["pq_states"] = 0
        params = {"type": args.type, "rank": args.rank, "method": method}
    if args.format == "json":
        params.update({"lambda": list(args.lam), "mu": list(args.mu)})
        _emit_json("k", params, [_result(args.lam, args.mu, series)], t0, **meta)
    else:
        print(series)
    return OK


# -- table --------------------------------------------------------------


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    rows = sorted(k_matrix(args.family, args.max_weight, args.trunc).entries.items())
    params = {"family": args.family, "max_weight": args.max_weight, "trunc": args.trunc}
    if args.format == "json":
        _emit_json("table", params, (_result(lam, mu, series) for (lam, mu), series in rows), t0)
    elif args.format == "csv":
        print("lambda,mu,series")
        for (lam, mu), series in rows:
            print('"%s","%s","%s"' % (",".join(map(str, lam)), ",".join(map(str, mu)), series))
    else:  # latex
        print(r"\begin{tabular}{lll}")
        print(r"$\lambda$ & $\mu$ & $K_{\lambda,\mu}(q)$ \\ \hline")
        for (lam, mu), series in rows:
            body = " + ".join(
                (str(c) if d == 0 else ("q" if c == 1 else f"{c}q") + (f"^{{{d}}}" if d > 1 else ""))
                for d, c in series.pairs()
            )
            print(r"$(%s)$ & $(%s)$ & $%s$ \\" % (
                ",".join(map(str, lam)), ",".join(map(str, mu)), body))
        print(r"\end{tabular}")
    return OK


# -- verify -------------------------------------------------------------
#
# A suite is a generator that yields one item per check: None when the
# check passes, else its failure record.  cmd_verify counts them.


def _suite_duality(args):
    for lam in enumerate_partitions(args.max_weight):
        a = k_limit("so", lam, (), args.trunc)
        b = k_limit("sp", conjugate(lam), (), args.trunc)
        yield None if a == b else {"lambda": list(lam), "so": a.pairs(), "sp_conj": b.pairs()}


def _suite_stability(args):
    for nu in enumerate_partitions(args.max_weight):
        for mu in enumerate_partitions(weight(nu)):
            if not dominates(nu, mu):
                continue
            a = len(mu)
            for k in range(args.max_k + 1):
                # ranks up to 5, or up to 2 * max_k + 1 so the top k has a pair
                lo, hi = 2 * k + a, min(2 * k + a + 2, max(5, 2 * args.max_k + 1))
                ranks = [n for n in range(lo, hi + 1) if n >= max(2, len(nu), len(mu))]
                if len(ranks) < 2:
                    continue
                vals = set()
                for n in ranks:
                    vals.add(k_direct(RootSystem("B", n), nu, mu)[k])
                    vals.add(k_direct(RootSystem("D", n), nu, mu)[k])
                yield None if len(vals) == 1 else {
                    "nu": list(nu), "mu": list(mu), "k": k, "vals": sorted(vals)}


def _suite_hesselink(args):
    # coefficient k of K_{lam,0}: the harmonics H^k(g) against the direct
    # sum on their support at ranks 2-3, and against the recurrence on every
    # lam with |lam| <= 2k (zeros included) at ranks 2..max_rank
    for kind in "BCD":
        for rank in range(2, args.max_rank + 1):
            rs = RootSystem(kind, rank)
            for k in range(args.max_k + 1):
                h = harmonic_char_finite(rs, k)
                paths = (
                    ("direct", k_direct, h.terms if rank <= 3 else ()),
                    ("recurrence", k_recurrence_finite,
                     [lam for lam in enumerate_partitions(2 * k) if len(lam) <= rank]),
                )
                for path, fn, shapes in paths:
                    for lam in shapes:
                        yield None if h.coeff(lam)[k] == fn(rs, lam, ())[k] else {
                            "rs": str(rs), "k": k, "lambda": list(lam), "path": path}


def _suite_stable_hesselink(args):
    # coefficient k of K_{lam,empty}: Morris/Pieri recurrence vs Littlewood/LR sums
    for family in ("so", "sp"):
        for lam in enumerate_partitions(args.max_weight):
            series = k_limit(family, lam, (), args.max_k)
            for k in range(args.max_k + 1):
                harmonic = harmonic_coeff_stable(family, k, lam)
                yield None if series[k] == harmonic else {
                    "family": family, "lambda": list(lam), "k": k,
                    "limit": series[k], "harmonic": harmonic}


def _finite_pairs(args, dominated=True):
    """(rs, nu, mu) over B/C/D at ranks 2..max_rank, |nu| <= max_weight,
    |mu| <= |nu| and both within the rank; with `dominated`, only the mu
    that nu dominates."""
    for kind in "BCD":
        for rank in range(2, args.max_rank + 1):
            rs = RootSystem(kind, rank)
            for nu in enumerate_partitions(args.max_weight):
                if len(nu) > rank:
                    continue
                for mu in enumerate_partitions(weight(nu)):
                    if len(mu) <= rank and (not dominated or dominates(nu, mu)):
                        yield rs, nu, mu


def _suite_degrees(args):
    for rs, nu, mu in _finite_pairs(args):
        series = k_direct(rs, nu, mu)
        if not series:
            continue
        lo, hi = degree_bounds(rs, nu, mu)
        ok = series.low_degree() >= lo and series.degree() == hi and series[hi] == 1
        yield None if ok else {"rs": str(rs), "nu": list(nu), "mu": list(mu),
                               "window": [lo, hi], "series": series.pairs()}


def _suite_pieri_oracle(args):
    # the pairs off the dominance order too: the recurrence answers the
    # lattice zeros among them without a step, k_direct by its Weyl sum
    for rs, nu, mu in _finite_pairs(args, dominated=False):
        yield None if k_recurrence_finite(rs, nu, mu) == k_direct(rs, nu, mu) else {
            "rs": str(rs), "nu": list(nu), "mu": list(mu)}


def _suite_hl_inverse(args):
    # the truncated window's inverse is two-sided: P.K = K.P = I entrywise
    zero = QSeries.zero()
    for family in ("so", "sp"):
        km = k_matrix(family, args.max_weight, args.trunc)
        pm = p_basis_matrix(family, args.max_weight, args.trunc)
        for product, prod in (("PK", pm.matmul(km)), ("KP", km.matmul(pm))):
            for lam in km.index:
                for mu in km.index:
                    want = {0: 1} if lam == mu else {}
                    # entries, not entry(): the window's shapes need no re-validation
                    yield None if prod.entries.get((lam, mu), zero).coeffs == want else {
                        "family": family, "product": product,
                        "lambda": list(lam), "mu": list(mu)}


_SUITES = {
    "duality": (_suite_duality, {"max_weight": 6, "trunc": 8}),
    "stability": (_suite_stability, {"max_weight": 4, "max_k": 2}),
    "hesselink": (_suite_hesselink, {"max_k": 3, "max_rank": 10}),
    "stable-hesselink": (_suite_stable_hesselink, {"max_weight": 10, "max_k": 8}),
    "degrees": (_suite_degrees, {"max_weight": 4, "max_rank": 3}),
    "pieri-oracle": (_suite_pieri_oracle, {"max_weight": 4, "max_rank": 4}),
    "hl-inverse": (_suite_hl_inverse, {"max_weight": 8, "trunc": 4}),
}
# every verify option with its least value
_VERIFY_BOUNDS = {"max_weight": 0, "max_rank": 2, "max_k": 0, "trunc": 0}


def cmd_verify(args) -> int:
    import json  # as in _emit_json

    t0 = time.perf_counter()
    fn, defaults = _SUITES[args.suite]
    for name, low in _VERIFY_BOUNDS.items():
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if value is None:
            setattr(args, name, defaults.get(name))
        elif name not in defaults:
            raise ValueError(f"{flag} does not apply to suite {args.suite}")
        else:
            check_bound(value, flag, low)
    results = list(fn(args))
    if not results:
        raise ValueError(f"suite {args.suite} makes no check with these options")
    fails = [r for r in results if r is not None]
    report = {
        "suite": args.suite,
        "checks": len(results),
        "failures": fails,
        "passed": not fails,
        "wall_ms": int((time.perf_counter() - t0) * 1000),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return OK if not fails else VERIFY_FAILED


# -- driver -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qweyl", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("k", help="one K-polynomial (finite rank) or K-series (stable)")
    k.add_argument("--type", choices=("B", "C", "D"))
    k.add_argument("--rank", type=int)
    k.add_argument("--family", choices=("so", "sp"))
    k.add_argument("--lam", type=parse_partition, required=True)
    k.add_argument("--mu", type=parse_partition, default=())
    k.add_argument("--trunc", type=int)
    k.add_argument("--method", choices=("direct", "recurrence"),
                   help="direct: the Weyl alternating sum of P_q; default recurrence")
    k.add_argument("--format", choices=("text", "json"), default="text")
    k.set_defaults(fn=cmd_k)

    t = sub.add_parser("table", help="bulk table of stable K-series")
    t.add_argument("--family", choices=("so", "sp"), required=True)
    t.add_argument("--max-weight", type=int, required=True)
    t.add_argument("--trunc", type=int, required=True)
    t.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=sorted(_SUITES), required=True)
    for name in _VERIFY_BOUNDS:
        v.add_argument("--" + name.replace("_", "-"), type=int)
    v.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RecursionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        # its message is empty or a size; the input asked for more than
        # the process can hold
        print("error: out of memory (the input is too large for this process)",
              file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
