"""Command-line interface and the library's persistent cache, exercised in-process."""

import contextlib
import functools
import importlib
import io
import json
import pkgutil
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import qweyl
from qweyl import cache, cli, lr, partitions
from qweyl.cache import CorruptCacheError, cache_load, cache_save
from qweyl.cli import _SUITES, main, parse_partition
from qweyl.partitions import dominates, enumerate_partitions, weight
from qweyl.qkostant import _table
from qweyl.qseries import QSeries
from qweyl.recurrence import k_limit


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition("3,0") == (3,)
    with pytest.raises(Exception):
        parse_partition("1,2")


def test_k_finite_text(capsys):
    code, out, _ = run(capsys, "k", "--type", "C", "--rank", "2", "--lam", "2")
    assert code == 0
    assert out.strip() == "q + q^3"


def test_k_recurrence_agrees(capsys):
    base = run(capsys, "k", "--type", "B", "--rank", "3", "--lam", "2,1", "--mu", "1",
               "--method", "direct")
    rec = run(
        capsys, "k", "--type", "B", "--rank", "3", "--lam", "2,1", "--mu", "1",
        "--method", "recurrence",
    )
    assert base[0] == rec[0] == 0
    assert base[1] == rec[1]


def test_k_stable_json(capsys):
    code, out, _ = run(
        capsys, "k", "--family", "sp", "--lam", "2", "--trunc", "4",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "k"
    assert doc["params"]["family"] == "sp"
    assert doc["results"] == [{"lambda": [2], "mu": [], "coeffs": [[1, 1], [3, 1]]}]
    assert set(doc["meta"]) == {"versions", "cache_stats", "wall_ms"}


def test_json_meta_reports_every_memo_table(capsys):
    code, out, _ = run(
        capsys, "k", "--family", "so", "--lam", "2", "--trunc", "4", "--format", "json",
    )
    assert code == 0
    stats = json.loads(out)["meta"]["cache_stats"]
    assert set(stats) == {"tables"}
    tables = stats["tables"]
    assert set(tables) == {
        "rootsystems.rho_doubled", "qkostant._table", "qkostant._block_weights",
        "branching._sym_mult", "branching._stable_euler_factor", "recurrence._k_finite",
        "recurrence._finite_pieri", "recurrence._k_limit", "recurrence._morris_step",
        "recurrence._pooled", "recurrence._shared", "pieri._pieri_support",
        "partitions._partitions_in_class", "partitions._checked_partition",
        "rootsystems._checked_dominant", "lr.lr_cache",
    }
    assert all(set(t) == {"hits", "misses", "size"} for t in tables.values())
    assert tables["recurrence._k_limit"]["size"] > 0
    assert tables["pieri._pieri_support"]["size"] > 0
    assert tables["recurrence._morris_step"]["size"] > 0
    assert tables["recurrence._pooled"]["size"] > 0
    assert tables["recurrence._shared"]["size"] > 0


def test_every_memo_table_is_reported(monkeypatch):
    # table_stats() finds the tables by a scan, so a functools.cache
    # function added to a qweyl module is reported with no edit to cli, as
    # is every one defined at module level; none sits on a class, where
    # the scan does not look
    def _probe(x):
        return x

    _probe.__module__ = "qweyl.partitions"
    _probe = functools.cache(_probe)
    monkeypatch.setattr(partitions, "_probe", _probe, raising=False)
    _probe(1)
    _probe(1)
    tables = cli.table_stats()
    assert tables["partitions._probe"] == {"hits": 1, "misses": 1, "size": 1}
    for info in pkgutil.iter_modules(qweyl.__path__):
        module = importlib.import_module(f"qweyl.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type):
                assert not any(hasattr(m, "cache_info") for m in vars(obj).values()), obj
            elif hasattr(obj, "cache_info"):
                assert f"{obj.__module__.removeprefix('qweyl.')}.{obj.__name__}" in tables


def test_an_overflowing_slot_bound_is_a_usage_error(capsys):
    # the summed step bound of sp (700) at D = 800 does not fit a 64-bit
    # slot: exit 2 with one line on stderr, not a traceback
    code, out, err = run(capsys, "k", "--family", "sp", "--lam", "700", "--trunc", "800")
    assert (code, out) == (2, "")
    assert err.startswith("error: coefficient bound ") and err.count("\n") == 1


def test_usage_errors(capsys):
    # neither and both of --family / --type
    assert run(capsys, "k", "--lam", "2")[0] == 2
    assert run(
        capsys, "k", "--family", "so", "--type", "B", "--rank", "2", "--lam", "2",
        "--trunc", "3",
    )[0] == 2
    # stable series without a truncation bound
    assert run(capsys, "k", "--family", "so", "--lam", "2")[0] == 2
    # finite type without a rank
    assert run(capsys, "k", "--type", "B", "--lam", "2")[0] == 2
    # partition longer than the rank
    assert run(capsys, "k", "--type", "B", "--rank", "2", "--lam", "1,1,1")[0] == 2
    # domain errors raised inside the library: one line, no traceback
    for argv in (
        ("k", "--family", "so", "--lam", "2", "--trunc", "-1"),
        ("table", "--family", "so", "--max-weight", "-1", "--trunc", "3"),
        # an option that does not apply to the mode or suite, or is out of range
        ("k", "--family", "so", "--lam", "2", "--trunc", "3", "--rank", "-1",
         "--method", "recurrence"),
        ("k", "--family", "so", "--lam", "2", "--trunc", "3", "--method", "direct"),
        ("k", "--type", "B", "--rank", "3", "--lam", "2", "--trunc", "-5"),
        ("verify", "--suite", "duality", "--max-rank", "-1"),
        ("verify", "--suite", "degrees", "--max-rank", "-1"),
        ("verify", "--suite", "degrees", "--max-rank", "1"),
        ("verify", "--suite", "stability", "--max-k", "-3"),
        ("verify", "--suite", "stability", "--max-rank", "7"),
        # a grid with no check in it
        ("verify", "--suite", "stability", "--max-weight", "0", "--max-k", "0"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err


def test_recurrence_reaches_rank_260(capsys):
    # one stack frame of the finite recurrence per rank: the so(521)
    # vector representation has K_{(1),()} = q^260
    code, out, _ = run(capsys, "k", "--type", "B", "--rank", "260", "--lam", "1")
    assert code == 0
    assert out.strip() == "q^260"


def test_recurrence_runs_past_the_depth_of_the_python_stack(capsys):
    # rank 1000 once was a usage error (RecursionError); the recurrence
    # now fills its memo from below first and has no rank limit
    for argv in (("k", "--type", "B", "--rank", "1000", "--lam", "1"),
                 ("k", "--type", "B", "--rank", "1000", "--lam", "1", "--method", "recurrence")):
        code, out, err = run(capsys, *argv)
        assert (code, out.strip(), err) == (0, "q^1000", ""), argv


def test_direct_method_past_the_depth_of_the_python_stack_is_a_usage_error(capsys):
    # weyl_iter spends one generator frame per rank: the Weyl sum
    # at rank 1000 stops at the recursion limit with exit 2 and one line,
    # not a traceback
    code, out, err = run(capsys, "k", "--type", "B", "--rank", "1000", "--lam", "1",
                         "--method", "direct")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "recursion" in err and len(err.splitlines()) == 1, err


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # the Weyl sum at B100 (1) runs out of a 1 GB address-space cap; a
    # k_direct that raises MemoryError stands in for it, so the test never
    # asks for that memory
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "k_direct", exhausted)
    code, out, err = run(capsys, "k", "--type", "B", "--rank", "100", "--lam", "1",
                         "--method", "direct")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "memory" in err and len(err.splitlines()) == 1, err


def test_cache_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cache", "memo.bin", "k", "--type", "C", "--rank", "2", "--lam", "2"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


_numbers = st.integers(-1, 4).map(str)
_shapes = st.one_of(
    st.lists(st.integers(0, 4), max_size=3).map(lambda p: sorted(p, reverse=True)),
    st.lists(st.integers(-1, 4), max_size=3),
).map(lambda p: ",".join(map(str, p))) | st.sampled_from(["1.5", "a", "2,,1", " ", "0,1"])
_families = st.sampled_from(["so", "sp", "gl"])
_OPTIONS = {
    "k": {
        "--type": st.sampled_from("BCDA"), "--rank": _numbers, "--family": _families,
        "--lam": _shapes, "--mu": _shapes, "--trunc": _numbers,
        "--method": st.sampled_from(["direct", "recurrence"]),
        "--format": st.sampled_from(["text", "json", "csv"]),
    },
    "table": {
        "--family": _families, "--max-weight": _numbers, "--trunc": _numbers,
        "--format": st.sampled_from(["json", "csv", "latex", "text"]),
    },
    "verify": {
        "--suite": st.sampled_from(sorted(_SUITES) + ["none"]), "--max-weight": _numbers,
        "--max-rank": _numbers, "--max-k": _numbers, "--trunc": _numbers,
    },
}


_REQUIRED = {"k": ["--lam"], "table": ["--family", "--max-weight", "--trunc"], "verify": ["--suite"]}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    names = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    if draw(st.booleans()):  # so that about half the draws get past argparse
        names = _REQUIRED[command] + [n for n in names if n not in _REQUIRED[command]]
    argv = [command]
    for name in names:
        argv += [name, draw(options[name])]
    return argv


@settings(max_examples=120, deadline=None)
@given(_argv())
def test_random_argv_exit_codes(argv):
    # 0 ok, 1 failed verification, 2 error; argparse exits 0 or 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            return
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def _table_all_pairs(family, max_weight, trunc):
    """The JSON results of `table` by scanning every dominated, even-gap pair."""
    computed = sorted(
        (lam, mu, k_limit(family, lam, mu, trunc).pairs())
        for lam in enumerate_partitions(max_weight)
        for mu in enumerate_partitions(weight(lam))
        if dominates(lam, mu) and (weight(lam) - weight(mu)) % 2 == 0
    )
    return [{"lambda": list(l), "mu": list(m), "coeffs": [list(t) for t in p]}
            for l, m, p in computed if p]


@pytest.mark.parametrize("family", ["so", "sp"])
@pytest.mark.parametrize("max_weight, trunc", [(6, 3), (8, 5)])
def test_table_results_match_all_pairs_scan(capsys, family, max_weight, trunc):
    code, out, _ = run(
        capsys, "table", "--family", family, "--max-weight", str(max_weight),
        "--trunc", str(trunc),
    )
    assert code == 0
    assert json.loads(out)["results"] == _table_all_pairs(family, max_weight, trunc)


def test_interior_zero_partition_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["k", "--type", "B", "--rank", "3", "--lam", "2,0,1"])
    assert exc.value.code == 2
    assert "not weakly decreasing" in capsys.readouterr().err


def test_table_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "so", "--max-weight", "2", "--trunc", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,mu,series"
    assert '"1,1","1,1","1"' in lines

    code, out, _ = run(
        capsys, "table", "--family", "so", "--max-weight", "2", "--trunc", "3",
    )
    doc = json.loads(out)
    assert doc["command"] == "table"
    assert all(set(r) == {"lambda", "mu", "coeffs"} for r in doc["results"])


def test_table_latex(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "sp", "--max-weight", "2", "--trunc", "3",
        "--format", "latex",
    )
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert out.rstrip().endswith(r"\end{tabular}")


def test_verify_suite_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "duality", "--max-weight", "3", "--trunc", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == [] and doc["checks"] > 0


def test_verify_hesselink_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hesselink", "--max-k", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_hesselink_grid(capsys, monkeypatch):
    # ranks 2-3, k <= 2: the 29 checks against k_direct on the support of
    # H^k(g), and 90 against the recurrence on every |lam| <= 2k
    code, out, _ = run(capsys, "verify", "--suite", "hesselink", "--max-k", "2",
                       "--max-rank", "3")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and doc["checks"] == 119
    # a wrong recurrence is caught, on its own path only
    monkeypatch.setattr(cli, "k_recurrence_finite", lambda rs, lam, mu: QSeries.zero())
    code, out, _ = run(capsys, "verify", "--suite", "hesselink", "--max-k", "1",
                       "--max-rank", "4")
    doc = json.loads(out)
    assert code == 1 and doc["failures"]
    assert {f["path"] for f in doc["failures"]} == {"recurrence"}
    assert {f["rs"][0] for f in doc["failures"]} == set("BCD")


def test_verify_stability_ranks_grow_with_max_k(capsys):
    # coefficient k is compared from rank 2k + l(mu) up; with ranks capped at
    # 5 a k above 2 would add no check (121, as at the defaults)
    code, out, _ = run(capsys, "verify", "--suite", "stability", "--max-k", "3")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and doc["checks"] == 193


def test_verify_stable_hesselink_default_grid(capsys):
    # Morris/Pieri k_limit against Littlewood/LR harmonics, |lam| <= 10, k <= 8
    code, out, _ = run(capsys, "verify", "--suite", "stable-hesselink")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == []
    assert doc["checks"] == 2502


def test_verify_hl_inverse_default_grid(capsys):
    # P.K and K.P against the identity, both families, |lam|, |mu| <= 8, D = 4
    code, out, _ = run(capsys, "verify", "--suite", "hl-inverse")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == []
    assert doc["checks"] == 2 * 2 * 67**2


def test_verify_suites_keep_their_default_check_counts(capsys):
    counts = {"duality": 30, "stability": 121, "hesselink": 1238, "stable-hesselink": 2502,
              "degrees": 236, "pieri-oracle": 654, "hl-inverse": 17956}
    assert set(counts) == set(_SUITES)
    for suite, checks in counts.items():
        code, out, _ = run(capsys, "verify", "--suite", suite)
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True, suite
        assert doc["checks"] == checks, suite


def test_verify_hl_inverse_reports_failures(capsys, monkeypatch):
    # with P replaced by K both products are K.K, which is not the identity
    monkeypatch.setattr(cli, "p_basis_matrix", cli.k_matrix)
    code, out, _ = run(capsys, "verify", "--suite", "hl-inverse", "--max-weight", "4",
                       "--trunc", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False and doc["failures"]
    assert all(set(f) == {"family", "product", "lambda", "mu"} for f in doc["failures"])
    assert {(f["family"], f["product"]) for f in doc["failures"]} == {
        (family, product) for family in ("so", "sp") for product in ("PK", "KP")}


_BROKEN_PATHS = {
    # suite: (cli attribute, its broken stand-in, small options, keys of a record)
    "pieri-oracle": ("k_recurrence_finite", lambda rs, lam, mu: QSeries({0: 3}),
                     ("--max-weight", "2", "--max-rank", "2"), {"rs", "nu", "mu"}),
    "stability": ("k_direct", lambda rs, lam, mu: QSeries({0: rs.rank}),
                  ("--max-weight", "2", "--max-k", "1"), {"nu", "mu", "k", "vals"}),
    "degrees": ("k_direct", lambda rs, lam, mu: QSeries({rs.rank + len(lam): 1}),
                ("--max-weight", "2", "--max-rank", "2"), {"rs", "nu", "mu", "window", "series"}),
    "stable-hesselink": ("harmonic_coeff_stable", lambda family, k, lam: 1,
                         ("--max-weight", "2", "--max-k", "2"),
                         {"family", "lambda", "k", "limit", "harmonic"}),
    "duality": ("k_limit", lambda family, lam, mu, trunc: (
                    QSeries.zero() if family == "sp" else k_limit(family, lam, mu, trunc)),
                ("--max-weight", "2", "--trunc", "3"), {"lambda", "so", "sp_conj"}),
}


@pytest.mark.parametrize("suite", sorted(_BROKEN_PATHS))
def test_verify_suite_reports_a_broken_path(capsys, monkeypatch, suite):
    attr, broken, options, keys = _BROKEN_PATHS[suite]
    monkeypatch.setattr(cli, attr, broken)
    code, out, _ = run(capsys, "verify", "--suite", suite, *options)
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False and doc["failures"]
    assert all(set(f) == keys for f in doc["failures"])


def test_k_json_params_name_the_default_method(capsys):
    for argv, method in (((), "recurrence"), (("--method", "recurrence"), "recurrence"),
                         (("--method", "direct"), "direct")):
        code, out, _ = run(capsys, "k", "--type", "B", "--rank", "3", "--lam", "2",
                           "--format", "json", *argv)
        assert code == 0
        assert json.loads(out)["params"]["method"] == method


def test_k_json_meta_reports_pq_states(capsys):
    # every entry, of ranks 5 down to 1, of the P_q table k_direct filled,
    # beside cache_stats; the tables are per process, so start them empty
    # as a command does
    for method, states in (("direct", 262), ("recurrence", 0)):
        _table.cache_clear()
        code, out, _ = run(capsys, "k", "--type", "B", "--rank", "6", "--lam", "3",
                           "--method", method, "--format", "json")
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["pq_states"] == states
        assert set(meta) == {"versions", "cache_stats", "wall_ms", "pq_states"}


def test_json_puts_each_result_on_its_own_line(capsys):
    code, out, _ = run(capsys, "table", "--family", "so", "--max-weight", "4", "--trunc", "4")
    assert code == 0
    doc = json.loads(out)
    lines = out.strip().split("\n")
    assert len(doc["results"]) > 10
    assert len(lines) == len(doc["results"]) + 2
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == doc["results"]


def _joined_json(doc: dict) -> str:
    """The document as the CLI printed it when it joined all results into
    one string before printing."""
    head = json.dumps({key: doc[key] for key in doc if key != "results"}, sort_keys=True)
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in doc["results"])
    return f'{head[:-1]}, "results": [\n{lines}\n]}}' + "\n"


@pytest.mark.parametrize("argv", [
    ("table", "--family", "sp", "--max-weight", "6", "--trunc", "4"),
    ("k", "--family", "so", "--lam", "3,1", "--mu", "2", "--trunc", "5", "--format", "json"),
    ("k", "--type", "D", "--rank", "4", "--lam", "2,1", "--format", "json"),
])
def test_streamed_json_is_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]
    assert out == _joined_json(doc)


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "memo.bin")
    lr.lr_cache.clear()
    from qweyl.lr import lr_coefficient

    lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    saved_lr = dict(lr.lr_cache)
    cache_save(path)

    lr.lr_cache.clear()
    cache_load(path)
    assert lr.lr_cache == saved_lr
    # loading a second time is idempotent
    cache_load(path)
    assert lr.lr_cache == saved_lr


def test_cache_missing_is_cold_start(tmp_path):
    cache_load(str(tmp_path / "nope.bin"))  # no exception


def test_cache_corruption_detected(tmp_path):
    path = str(tmp_path / "memo.bin")
    cache_save(path)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-2])  # truncate the checksum
    with pytest.raises(CorruptCacheError):
        cache_load(path)
    with open(path, "wb") as fh:
        fh.write(b"NOTAFILE" + blob[8:])
    with pytest.raises(CorruptCacheError):
        cache_load(path)


def _write_with_crc(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob + zlib.crc32(blob).to_bytes(4, "little"))


def test_cache_body_must_be_a_list_of_key_integer_pairs(tmp_path):
    # each body below passes the header and the checksum, so only the parse
    # and the entry checks can reject it; nothing reaches the memo table
    path = str(tmp_path / "memo.bin")
    lr.lr_cache.clear()
    key = ((2, 1), (1,), (1, 1))
    for body in (f"[({key!r}, 1)", f"{{{key!r}: 1}}", f"[{key!r}]", f"[({key!r}, 1, 2)]",
                 f"[({key!r}, 1.0)]", f"[({key!r}, True)]", "[([1], 1)]", "[(print, 1)]"):
        _write_with_crc(path, cache.MAGIC + body.encode())
        with pytest.raises(CorruptCacheError):
            cache_load(path)
        assert not lr.lr_cache, body
    _write_with_crc(path, cache.MAGIC + f"[({key!r}, 1)]".encode())
    cache_load(path)
    assert lr.lr_cache == {key: 1}
    lr.lr_cache.clear()


def test_cache_file_of_the_old_version_reads_as_corrupt(tmp_path):
    path = str(tmp_path / "memo.bin")
    cache_save(path)
    blob = open(path, "rb").read()
    assert blob.startswith(cache.MAGIC) and cache.MAGIC != b"QWEYLC01"
    _write_with_crc(path, b"QWEYLC01" + blob[len(cache.MAGIC):-4])
    with pytest.raises(CorruptCacheError, match="bad header"):
        cache_load(path)
