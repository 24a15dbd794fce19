"""
Command-line surface: compute single K-polynomials/series, bulk tables,
and run the cross-checking verification suites.

Partitions are passed as comma-separated parts ("2,1"); the empty string
is the empty partition.  Exit codes: 0 ok, 1 verification failure,
2 usage error, invalid input or unreadable/unwritable cache file,
3 corrupt cache.
"""

__all__ = ["main"]

import argparse
import json
import sys
import time

from . import __version__
from .branching import harmonic_char_finite
from .cache import CorruptCacheError, cache_load, cache_save, default_cache_path
from .lr import lr_cache_stats
from .partitions import Partition, check_partition, conjugate, dominates, enumerate_partitions, weight
from .qkostant import k_direct
from .qseries import QSeries
from .recurrence import degree_bounds, k_limit, k_recurrence_finite
from .rootsystems import RootSystem
from .hall_littlewood import k_matrix, p_basis_matrix

OK, VERIFY_FAILED, USAGE_ERROR, CORRUPT_CACHE = 0, 1, 2, 3


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


def _emit_json(command: str, params: dict, results: list[dict], t0: float) -> str:
    entries, hits = lr_cache_stats()
    return json.dumps(
        {
            "command": command,
            "params": params,
            "results": results,
            "meta": {
                "versions": {"qweyl": __version__},
                "cache_stats": {"lr_entries": entries, "lr_hits": hits},
                "wall_ms": int((time.perf_counter() - t0) * 1000),
            },
        },
        indent=2,
        sort_keys=True,
    )


# -- k ------------------------------------------------------------------


def cmd_k(args) -> int:
    t0 = time.perf_counter()
    if (args.family is None) == (args.type is None):
        print("error: give exactly one of --family or --type/--rank", file=sys.stderr)
        return USAGE_ERROR
    if args.family:
        if args.trunc is None:
            print("error: --family needs --trunc (the series is infinite)", file=sys.stderr)
            return USAGE_ERROR
        series = k_limit(args.family, args.lam, args.mu, args.trunc)
        params = {"family": args.family, "trunc": args.trunc}
    else:
        if args.rank is None:
            print("error: --type needs --rank", file=sys.stderr)
            return USAGE_ERROR
        rs = RootSystem(args.type, args.rank)
        if args.method == "recurrence":
            series = k_recurrence_finite(rs, args.lam, args.mu)
        else:
            series = k_direct(rs, args.lam, args.mu)
        params = {"type": args.type, "rank": args.rank, "method": args.method}
    if args.format == "json":
        params.update({"lambda": list(args.lam), "mu": list(args.mu)})
        print(_emit_json("k", params, [_result(args.lam, args.mu, series)], t0))
    else:
        print(series)
    return OK


# -- table --------------------------------------------------------------


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    computed = sorted(
        (lam, mu, k_limit(args.family, lam, mu, args.trunc).pairs())
        for lam in enumerate_partitions(args.max_weight)
        for mu in enumerate_partitions(weight(lam))
        if dominates(lam, mu) and (weight(lam) - weight(mu)) % 2 == 0
    )
    rows = [(lam, mu, pairs) for lam, mu, pairs in computed if pairs]
    params = {"family": args.family, "max_weight": args.max_weight, "trunc": args.trunc}
    if args.format == "json":
        results = [{"lambda": list(l), "mu": list(m), "coeffs": p} for l, m, p in rows]
        print(_emit_json("table", params, results, t0))
    elif args.format == "csv":
        print("lambda,mu,series")
        for lam, mu, pairs in rows:
            s = str(QSeries(dict(pairs), args.trunc))
            print('"%s","%s","%s"' % (",".join(map(str, lam)), ",".join(map(str, mu)), s))
    else:  # latex
        print(r"\begin{tabular}{lll}")
        print(r"$\lambda$ & $\mu$ & $K_{\lambda,\mu}(q)$ \\ \hline")
        for lam, mu, pairs in rows:
            body = " + ".join(
                (str(c) if d == 0 else ("q" if c == 1 else f"{c}q") + (f"^{{{d}}}" if d > 1 else ""))
                for d, c in pairs
            )
            print(r"$(%s)$ & $(%s)$ & $%s$ \\" % (
                ",".join(map(str, lam)), ",".join(map(str, mu)), body))
        print(r"\end{tabular}")
    return OK


# -- verify -------------------------------------------------------------


def _suite_duality(args):
    fails, checks = [], 0
    for lam in enumerate_partitions(args.max_weight):
        a = k_limit("so", lam, (), args.trunc)
        b = k_limit("sp", conjugate(lam), (), args.trunc)
        checks += 1
        if a != b:
            fails.append({"lambda": list(lam), "so": a.pairs(), "sp_conj": b.pairs()})
    return checks, fails


def _suite_stability(args):
    fails, checks = [], 0
    for nu in enumerate_partitions(args.max_weight):
        for mu in enumerate_partitions(weight(nu)):
            if not dominates(nu, mu):
                continue
            a = len(mu)
            for k in range(args.max_k + 1):
                lo, hi = 2 * k + a, min(2 * k + a + 2, 5)
                ranks = [n for n in range(lo, hi + 1) if n >= max(2, len(nu), len(mu))]
                if len(ranks) < 2:
                    continue
                vals = set()
                for n in ranks:
                    vals.add(k_direct(RootSystem("B", n), nu, mu)[k])
                    vals.add(k_direct(RootSystem("D", n), nu, mu)[k])
                checks += 1
                if len(vals) != 1:
                    fails.append({"nu": list(nu), "mu": list(mu), "k": k, "vals": sorted(vals)})
    return checks, fails


def _suite_hesselink(args):
    fails, checks = [], 0
    for kind in "BCD":
        for rank in (2, 3):
            rs = RootSystem(kind, rank)
            for k in range(args.max_k + 1):
                h = harmonic_char_finite(rs, k)
                for lam in h.terms:
                    checks += 1
                    if h.coeff(lam)[k] != k_direct(rs, lam, ())[k]:
                        fails.append({"rs": str(rs), "k": k, "lambda": list(lam)})
    return checks, fails


def _suite_degrees(args):
    fails, checks = [], 0
    for kind in "BCD":
        for rank in range(2, args.max_rank + 1):
            rs = RootSystem(kind, rank)
            for nu in enumerate_partitions(args.max_weight):
                if len(nu) > rank:
                    continue
                for mu in enumerate_partitions(weight(nu)):
                    if len(mu) > rank or not dominates(nu, mu):
                        continue
                    series = k_direct(rs, nu, mu)
                    if not series:
                        continue
                    lo, hi = degree_bounds(rs, nu, mu)
                    checks += 1
                    if series.low_degree() < lo or series.degree() != hi or series[hi] != 1:
                        fails.append({"rs": str(rs), "nu": list(nu), "mu": list(mu),
                                      "window": [lo, hi], "series": series.pairs()})
    return checks, fails


def _suite_pieri_oracle(args):
    fails, checks = [], 0
    for kind in "BCD":
        for rank in range(2, args.max_rank + 1):
            rs = RootSystem(kind, rank)
            for nu in enumerate_partitions(args.max_weight):
                if len(nu) > rank:
                    continue
                for mu in enumerate_partitions(weight(nu)):
                    if len(mu) > rank or not dominates(nu, mu):
                        continue
                    checks += 1
                    if k_recurrence_finite(rs, nu, mu) != k_direct(rs, nu, mu):
                        fails.append({"rs": str(rs), "nu": list(nu), "mu": list(mu)})
    return checks, fails


def _suite_hl_inverse(args):
    fails, checks = [], 0
    for family in ("so", "sp"):
        km = k_matrix(family, args.max_weight, args.trunc)
        pm = p_basis_matrix(family, args.max_weight, args.trunc)
        prod = pm.matmul(km)
        for lam in km.index:
            for mu in km.index:
                checks += 1
                want = {0: 1} if lam == mu else {}
                if prod.entry(lam, mu).coeffs != want:
                    fails.append({"family": family, "lambda": list(lam), "mu": list(mu)})
    return checks, fails


_SUITES = {
    "duality": (_suite_duality, {"max_weight": 6, "trunc": 8}),
    "stability": (_suite_stability, {"max_weight": 4, "max_k": 2}),
    "hesselink": (_suite_hesselink, {"max_k": 2}),
    "degrees": (_suite_degrees, {"max_weight": 4, "max_rank": 3}),
    "pieri-oracle": (_suite_pieri_oracle, {"max_weight": 4, "max_rank": 4}),
    "hl-inverse": (_suite_hl_inverse, {"max_weight": 6, "trunc": 2}),
}


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    fn, defaults = _SUITES[args.suite]
    for name, val in defaults.items():
        if getattr(args, name, None) is None:
            setattr(args, name, val)
    checks, fails = fn(args)
    report = {
        "suite": args.suite,
        "checks": checks,
        "failures": fails,
        "passed": not fails,
        "wall_ms": int((time.perf_counter() - t0) * 1000),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return OK if not fails else VERIFY_FAILED


# -- driver -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qweyl", description=__doc__)
    top.add_argument("--cache", default=default_cache_path(),
                     help="cache file to load before and save after the command")
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("k", help="one K-polynomial (finite rank) or K-series (stable)")
    k.add_argument("--type", choices=("B", "C", "D"))
    k.add_argument("--rank", type=int)
    k.add_argument("--family", choices=("so", "sp"))
    k.add_argument("--lam", type=parse_partition, required=True)
    k.add_argument("--mu", type=parse_partition, default=())
    k.add_argument("--trunc", type=int)
    k.add_argument("--method", choices=("direct", "recurrence"), default="direct")
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
    v.add_argument("--max-weight", type=int)
    v.add_argument("--max-rank", type=int)
    v.add_argument("--max-k", type=int)
    v.add_argument("--trunc", type=int)
    v.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cache:
            cache_load(args.cache)
        code = args.fn(args)
        if args.cache and code == OK:
            cache_save(args.cache)
        return code
    except CorruptCacheError as exc:
        print(f"corrupt cache: {exc}", file=sys.stderr)
        return CORRUPT_CACHE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
