"""Command-line interface and the persistent cache, exercised in-process."""

import json

import pytest

from qweyl import lr, pieri
from qweyl.cache import CorruptCacheError, cache_load, cache_save
from qweyl.cli import main, parse_partition


def run(capsys, *argv):
    code = main(["--cache", "", *argv])
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
    base = run(capsys, "k", "--type", "B", "--rank", "3", "--lam", "2,1", "--mu", "1")
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
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err


def test_cache_path_errors_exit_2(tmp_path, capsys):
    # the result is printed; saving into a missing directory then fails
    code = main(["--cache", str(tmp_path / "no" / "c.bin"),
                 "k", "--family", "so", "--lam", "2", "--trunc", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.strip() == "q^2"
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    # a directory in place of the cache file fails on loading
    code = main(["--cache", str(tmp_path), "k", "--type", "C", "--rank", "2", "--lam", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


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


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "memo.bin")
    lr.lr_cache.clear()
    pieri._memo.clear()
    from qweyl.lr import lr_coefficient
    from qweyl.pieri import stable_pieri

    lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    stable_pieri((1,), 1, (2,))
    saved_lr = dict(lr.lr_cache)
    saved_pieri = dict(pieri._memo)
    cache_save(path)

    lr.lr_cache.clear()
    pieri._memo.clear()
    cache_load(path)
    assert lr.lr_cache == saved_lr
    assert pieri._memo == saved_pieri
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


def test_cli_corrupt_cache_exit_code(tmp_path, capsys):
    path = str(tmp_path / "memo.bin")
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    code = main(["--cache", path, "k", "--type", "C", "--rank", "2", "--lam", "2"])
    _, err = capsys.readouterr()
    assert code == 3
    assert "corrupt cache" in err


def test_cli_writes_cache(tmp_path, capsys):
    path = str(tmp_path / "memo.bin")
    code = main(["--cache", path, "k", "--family", "so", "--lam", "2", "--trunc", "3"])
    capsys.readouterr()
    assert code == 0
    cache_load(path)  # round-trips cleanly
