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
import json
import sys
import time

from . import __version__, lr, pieri
from .branching import _sym_decomposition, _sym_mult, harmonic_char_finite, harmonic_coeff_stable
from .partitions import (Partition, _partitions_in_class, check_bound, check_partition, conjugate,
                         dominates, enumerate_partitions, weight)
from .qkostant import _table, k_direct
from .qseries import QSeries
from .recurrence import _k_finite, _k_limit, _morris_step, degree_bounds, k_limit, k_recurrence_finite
from .rootsystems import RootSystem, rho_doubled
from .hall_littlewood import k_matrix, p_basis_matrix

OK, VERIFY_FAILED, USAGE_ERROR = 0, 1, 2

# held here, so that a wrapper bound over a module attribute later does
# not hide cache_info()
_CACHED = (rho_doubled, _table, _sym_decomposition, _sym_mult, _k_finite, _k_limit,
           _morris_step, pieri._pieri_support, _partitions_in_class)


def table_stats() -> dict[str, dict[str, int]]:
    """{table: {"hits", "misses", "size"}} for every process-wide memo table:
    the functools.cache functions above and the MemoDict table
    lr.lr_cache, reported in the JSON meta."""
    out = {}
    for fn in _CACHED:
        info = fn.cache_info()
        name = f"{fn.__module__.removeprefix('qweyl.')}.{fn.__qualname__}"
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    table = lr.lr_cache
    out["lr.lr_cache"] = {"hits": table.hits, "misses": table.misses, "size": len(table)}
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


def _emit_json(command: str, params: dict, results: list[dict], t0: float) -> str:
    return json.dumps(
        {
            "command": command,
            "params": params,
            "results": results,
            "meta": {
                "versions": {"qweyl": __version__},
                "cache_stats": {"tables": table_stats()},
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
        if args.rank is not None or args.method is not None:
            print("error: --rank and --method apply only to --type", file=sys.stderr)
            return USAGE_ERROR
        series = k_limit(args.family, args.lam, args.mu, args.trunc)
        params = {"family": args.family, "trunc": args.trunc}
    else:
        if args.rank is None:
            print("error: --type needs --rank", file=sys.stderr)
            return USAGE_ERROR
        if args.trunc is not None:
            print("error: --trunc applies only to --family", file=sys.stderr)
            return USAGE_ERROR
        rs = RootSystem(args.type, args.rank)
        if args.method == "recurrence":
            series = k_recurrence_finite(rs, args.lam, args.mu)
        else:
            series = k_direct(rs, args.lam, args.mu)
        params = {"type": args.type, "rank": args.rank, "method": args.method or "direct"}
    if args.format == "json":
        params.update({"lambda": list(args.lam), "mu": list(args.mu)})
        print(_emit_json("k", params, [_result(args.lam, args.mu, series)], t0))
    else:
        print(series)
    return OK


# -- table --------------------------------------------------------------


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    rows = sorted(k_matrix(args.family, args.max_weight, args.trunc).entries.items())
    params = {"family": args.family, "max_weight": args.max_weight, "trunc": args.trunc}
    if args.format == "json":
        results = [_result(lam, mu, series) for (lam, mu), series in rows]
        print(_emit_json("table", params, results, t0))
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


def _suite_stable_hesselink(args):
    # coefficient k of K_{lam,empty}: Morris/Pieri recurrence vs Littlewood/LR sums
    fails, checks = [], 0
    for family in ("so", "sp"):
        for lam in enumerate_partitions(args.max_weight):
            series = k_limit(family, lam, (), args.max_k)
            for k in range(args.max_k + 1):
                checks += 1
                harmonic = harmonic_coeff_stable(family, k, lam)
                if series[k] != harmonic:
                    fails.append({"family": family, "lambda": list(lam), "k": k,
                                  "limit": series[k], "harmonic": harmonic})
    return checks, fails


def _finite_pairs(args):
    """(rs, nu, mu) over B/C/D at ranks 2..max_rank, |nu| <= max_weight,
    nu dominating mu and both within the rank."""
    for kind in "BCD":
        for rank in range(2, args.max_rank + 1):
            rs = RootSystem(kind, rank)
            for nu in enumerate_partitions(args.max_weight):
                if len(nu) > rank:
                    continue
                for mu in enumerate_partitions(weight(nu)):
                    if len(mu) <= rank and dominates(nu, mu):
                        yield rs, nu, mu


def _suite_degrees(args):
    fails, checks = [], 0
    for rs, nu, mu in _finite_pairs(args):
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
    for rs, nu, mu in _finite_pairs(args):
        checks += 1
        if k_recurrence_finite(rs, nu, mu) != k_direct(rs, nu, mu):
            fails.append({"rs": str(rs), "nu": list(nu), "mu": list(mu)})
    return checks, fails


def _suite_hl_inverse(args):
    # the truncated window's inverse is two-sided: P.K = K.P = I entrywise
    fails, checks, zero = [], 0, QSeries.zero()
    for family in ("so", "sp"):
        km = k_matrix(family, args.max_weight, args.trunc)
        pm = p_basis_matrix(family, args.max_weight, args.trunc)
        for product, prod in (("PK", pm.matmul(km)), ("KP", km.matmul(pm))):
            for lam in km.index:
                for mu in km.index:
                    checks += 1
                    want = {0: 1} if lam == mu else {}
                    # entries, not entry(): the window's shapes need no re-validation
                    if prod.entries.get((lam, mu), zero).coeffs != want:
                        fails.append({"family": family, "product": product,
                                      "lambda": list(lam), "mu": list(mu)})
    return checks, fails


_SUITES = {
    "duality": (_suite_duality, {"max_weight": 6, "trunc": 8}),
    "stability": (_suite_stability, {"max_weight": 4, "max_k": 2}),
    "hesselink": (_suite_hesselink, {"max_k": 2}),
    "stable-hesselink": (_suite_stable_hesselink, {"max_weight": 10, "max_k": 8}),
    "degrees": (_suite_degrees, {"max_weight": 4, "max_rank": 3}),
    "pieri-oracle": (_suite_pieri_oracle, {"max_weight": 4, "max_rank": 4}),
    "hl-inverse": (_suite_hl_inverse, {"max_weight": 8, "trunc": 4}),
}
# every verify option with its least value
_VERIFY_BOUNDS = {"max_weight": 0, "max_rank": 2, "max_k": 0, "trunc": 0}


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    fn, defaults = _SUITES[args.suite]
    for name, low in _VERIFY_BOUNDS.items():
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if value is None:
            setattr(args, name, defaults.get(name))
        elif name not in defaults:
            print(f"error: {flag} does not apply to suite {args.suite}", file=sys.stderr)
            return USAGE_ERROR
        else:
            check_bound(value, flag, low)
    checks, fails = fn(args)
    if not checks:
        print(f"error: suite {args.suite} makes no check with these options", file=sys.stderr)
        return USAGE_ERROR
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
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("k", help="one K-polynomial (finite rank) or K-series (stable)")
    k.add_argument("--type", choices=("B", "C", "D"))
    k.add_argument("--rank", type=int)
    k.add_argument("--family", choices=("so", "sp"))
    k.add_argument("--lam", type=parse_partition, required=True)
    k.add_argument("--mu", type=parse_partition, default=())
    k.add_argument("--trunc", type=int)
    k.add_argument("--method", choices=("direct", "recurrence"))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
