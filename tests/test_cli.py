import concurrent.futures
import csv
import importlib
import io
import json
import pickle
from concurrent.futures import Future
from pathlib import Path

import pytest

from greenberg.cli import main, report_markdown, reports_json
from greenberg.group_ring import HowellIdeal, RingSpec, canonical_generators, poly_str

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_markdown_949(self, capsys):
        code, out, _ = _run(capsys, "verify", "--f", "949")
        assert code == 0
        assert "J = (2, T^2)" in out
        assert "n0 = 2" in out
        assert "N = 2^2" in out
        assert "| 2 | (2, T^2) |" in out   # per-level table row

    def test_even_radicand_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "--f", "4")
        assert code == 1
        assert "hint" in err or "try --f" in err or "nothing to verify" in err

    def test_reduction_hint(self, capsys):
        code, _, err = _run(capsys, "verify", "--f", "12")
        assert code == 1 and "--f 3" in err

    def test_unresolved_exit_code(self, capsys):
        code, out, _ = _run(capsys, "verify", "--f", "565", "--max-level", "1",
                            "--primes", "8")
        assert code == 2
        assert "UNRESOLVED" in out

    def test_trivial_gate(self, capsys):
        code, out, _ = _run(capsys, "verify", "--f", "3")
        assert code == 0
        assert "J = (1)" in out

    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = _run(capsys, "verify", "--f", "949", "--bogus")
        assert code == 1

    def test_max_level_bounds(self, capsys):
        # int64 products stay exact to level 20; outside [1, 20] is a usage error
        for bad in ("0", "21"):
            code, _, err = _run(capsys, "verify", "--f", "949", "--max-level", bad)
            assert code == 1, bad
            assert "usage:" in err and "--max-level" in err
            assert f"max_level={bad} is outside" in err
        for ok in ("1", "20"):
            code, _, _ = _run(capsys, "verify", "--f", "949", "--max-level", ok)
            assert code in (0, 2), ok

    def test_primes_below_two_usage_error(self, capsys):
        # a pair functional needs two primes: fewer can never certify
        for cmd in (("verify", "--f", "949"), ("table", "--min", "3", "--max", "9")):
            for bad in ("1", "0", "-3"):
                code, out, err = _run(capsys, *cmd, "--primes", bad)
                assert code == 1, (cmd, bad)
                assert out == "" and "usage:" in err and "--primes" in err
                assert f"primes={bad}: a pair functional needs two primes" in err
        code, _, _ = _run(capsys, "verify", "--f", "949", "--primes", "2")
        assert code in (0, 2)


class TestFormats:
    def test_json_deterministic_and_complete(self, capsys):
        code, out1, _ = _run(capsys, "verify", "--f", "85", "--format", "json")
        assert code == 0
        code, out2, _ = _run(capsys, "verify", "--f", "85", "--format", "json")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["f"] == 85 and doc["n0"] == 2
        assert doc["generators"] == ["2", "T^2"]
        # per-level Howell data (M and the rows modulo M) is embedded for auditing
        assert doc["levels"][0]["howell"]["rows"]
        assert doc["levels"][0]["howell"]["spec"]["divided"] is False

    def test_json_howell_blocks_rebuild_each_level(self, capsys):
        # a reader rebuilds each level's ideal from its block alone: the
        # rows and the monic M generate it, and the rows sit at rank deg M
        for f in (949, 1217):          # 1217 = 1 mod 8: the divided presentation
            code, out, _ = _run(capsys, "verify", "--f", str(f), "--format", "json")
            assert code == 0
            for level in json.loads(out)["levels"]:
                block = level["howell"]
                spec = RingSpec(block["spec"]["d"], block["spec"]["n"],
                                block["spec"]["divided"])
                rank = len(block["relation"]) - 1
                assert block["relation"][-1] == 1
                assert all(len(row) == rank for row in block["rows"])
                rebuilt = HowellIdeal.from_generators(spec, [block["relation"]] + block["rows"])
                assert rebuilt.ring == RingSpec(spec.d, spec.n, spec.divided,
                                                relation=block["relation"])
                assert [poly_str(g) for g in canonical_generators(rebuilt).generators] \
                    == level["generators"], (f, level["n"])

    def test_csv_deterministic_and_round_trips(self, capsys):
        code, out1, _ = _run(capsys, "table", "--min", "85", "--max", "91",
                             "--format", "csv")
        assert code == 0
        code, out2, _ = _run(capsys, "table", "--min", "85", "--max", "91",
                             "--format", "csv")
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        by_f = {int(r["f"]): r for r in rows}
        assert set(by_f) == {85, 87, 89, 91}
        assert by_f[85]["generators"] == "2;T^2"
        assert by_f[85]["criterion"] == "cardinality"
        assert by_f[85]["mod8_class"] == "5"
        assert int(by_f[85]["n0"]) == 2 and int(by_f[85]["log2_index"]) == 2


class TestPickledReports:
    """A report renders the same after a pickle round trip (the benchmark's
    render-only processes render unpickled reports)."""

    @pytest.mark.parametrize("f", [1605, 6817])
    def test_render_after_round_trip(self, f, published_reports):
        rep = published_reports[f]
        again = pickle.loads(pickle.dumps(rep))
        assert report_markdown(again) == report_markdown(rep)
        assert reports_json([again]) == (GOLDEN / f"verify_{f}.json").read_text()

    def test_terminating_level_is_not_regenerated(self, published_reports, monkeypatch):
        # the terminating level's generators are the report's own; every
        # other level is regenerated once per format
        regenerate = HowellIdeal.from_generators.__func__
        calls = []

        def counted(cls, spec, gens):
            calls.append(spec)
            return regenerate(cls, spec, gens)

        monkeypatch.setattr(HowellIdeal, "from_generators", classmethod(counted))
        for f, rep in published_reports.items():
            again = pickle.loads(pickle.dumps(rep))
            calls.clear()
            report_markdown(again)
            reports_json([again])
            assert len(calls) == 2 * (len(rep.levels) - 1), f


class TestTableCommand:
    def test_sections_and_grouping(self, capsys):
        code, out, err = _run(capsys, "table", "--min", "83", "--max", "95")
        assert code == 0
        assert "## f = 5 mod 8" in out
        assert "## f = 3, 7 mod 8" in out
        assert "## f = 1 mod 8" in out
        assert "trivially stable" in out
        assert "87, 91, 95" in out           # grouped under one ideal row
        assert "skipped" in err              # even/non-squarefree note

    def test_empty_range(self, capsys):
        code, out, _ = _run(capsys, "table", "--min", "100", "--max", "90")
        assert code == 0
        assert out.strip() == ""

    def test_published_range_rows(self, capsys):
        # the 5 mod 8 section of [85, 165] places 85 under (2, T^2) and
        # 165 under (4, 2T, T^2)
        code, out, _ = _run(capsys, "table", "--min", "85", "--max", "165")
        assert code == 0
        section = out.split("## f = 5 mod 8")[1].split("##")[0]
        row_85 = next(l for l in section.splitlines() if " 85" in l or "| 85" in l)
        assert "(2, T^2)" in row_85 and "| 2 | 2^2 |" in row_85
        row_165 = next(l for l in section.splitlines() if "165" in l)
        assert "(4, 2T, T^2)" in row_165 and "| 2 | 2^3 |" in row_165

    def test_parallel_jobs_match_serial(self, capsys):
        code, serial, _ = _run(capsys, "table", "--min", "85", "--max", "89",
                               "--format", "csv")
        code2, parallel, _ = _run(capsys, "table", "--min", "85", "--max", "89",
                                  "--format", "csv", "--jobs", "2")
        assert code == code2 == 0
        assert serial == parallel

    def test_parallel_worker_error_names_radicand(self, capsys, monkeypatch):
        # pool workers fork after the patch, so they inherit it (the package
        # binds the name verify to the function, hence the module lookup)
        verify_module = importlib.import_module("greenberg.verify")
        real = verify_module.run_level

        def failing(f, *args, **kwargs):
            if f == 87:
                raise RuntimeError("injected failure")
            return real(f, *args, **kwargs)

        monkeypatch.setattr(verify_module, "run_level", failing)
        code, _, err = _run(capsys, "table", "--min", "85", "--max", "89",
                            "--format", "csv", "--jobs", "2")
        assert code == 1
        assert "error: f=87: injected failure" in err


    def test_serial_error_names_radicand(self, capsys, monkeypatch):
        # without --jobs a failing verification is reported like a worker's
        verify_module = importlib.import_module("greenberg.verify")
        real = verify_module.run_level

        def failing(f, *args, **kwargs):
            if f == 87:
                raise RuntimeError("injected failure")
            return real(f, *args, **kwargs)

        monkeypatch.setattr(verify_module, "run_level", failing)
        code, out, err = _run(capsys, "table", "--min", "85", "--max", "89", "--format", "csv")
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: f=87: injected failure"

    def test_jobs_below_one_usage_error(self, capsys):
        for bad in ("0", "-2"):
            code, out, err = _run(capsys, "table", "--min", "3", "--max", "9", "--jobs", bad)
            assert code == 1 and out == "", bad
            assert "usage:" in err and f"jobs={bad}: a run needs at least one worker" in err

    def test_pool_capped_at_radicand_count(self, capsys, monkeypatch):
        # a forking pool starts all of its workers at the first submit; this
        # executor records the size asked for and runs each call in-process
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

            def shutdown(self, cancel_futures=False):
                pass

        argv = ("table", "--min", "3", "--max", "9", "--format", "csv")
        code, serial, _ = _run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        code, pooled, _ = _run(capsys, *argv, "--jobs", "5000")
        assert code == 0 and pooled == serial
        assert sizes == [3]                  # 3, 5 and 7; 4, 6, 8 and 9 are skipped
        code, _, _ = _run(capsys, "table", "--min", "3", "--max", "4", "--jobs", "5000")
        assert code == 0 and sizes == [3]    # one radicand: no pool at all


class TestCacheCommand:
    def test_inspect_clear_verify(self, capsys, tmp_path):
        code, _, _ = _run(capsys, "verify", "--f", "85", "--cache-dir", str(tmp_path))
        assert code == 0
        code, out, _ = _run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "f=85 n=1" in out and "f=85 n=2" in out

        code, out, _ = _run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path),
                            "--verify-cache")
        assert code == 0
        assert "bit-identical" in out

        code, out, _ = _run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert not list(tmp_path.glob("logs_*.txt"))

    def test_verify_cache_catches_tampered_record(self, capsys, tmp_path):
        # the first record is always sampled; one eta coefficient moved mod 4
        # keeps the line valid, so only the recomputation can catch it
        _run(capsys, "verify", "--f", "85", "--cache-dir", str(tmp_path))
        victim = tmp_path / "logs_85_1.txt"
        lines = victim.read_text().splitlines()
        head, eta, rest = lines[1].split("|", 2)
        coeffs = eta.split()
        coeffs[0] = str((int(coeffs[0]) + 1) % 4)
        lines[1] = f"{head}| {' '.join(coeffs)} |{rest}"
        victim.write_text("\n".join(lines) + "\n")
        code, out, _ = _run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path),
                            "--verify-cache")
        assert code == 2
        assert "MISMATCH: f=85 n=1" in out

    def test_corrupt_entry_reported(self, capsys, tmp_path):
        _run(capsys, "verify", "--f", "85", "--cache-dir", str(tmp_path))
        victim = next(tmp_path.glob("logs_85_1.txt"))
        lines = victim.read_text().splitlines()
        lines.insert(1, "85 1 notanint | 3 | 0 | -")
        victim.write_text("\n".join(lines) + "\n")
        code, out, _ = _run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "corrupt" in out

    def test_missing_dir_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("GREENBERG_CACHE", raising=False)
        code, _, err = _run(capsys, "cache", "inspect")
        assert code == 1

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GREENBERG_CACHE", str(tmp_path))
        code, _, _ = _run(capsys, "verify", "--f", "87")
        assert code == 0
        assert list(tmp_path.glob("logs_87_*.txt"))
