"""Certificates and cache files of fixed runs, byte for byte.

``tests/golden/`` holds what the command line printed and wrote for these
runs; any change to a certificate's or a cache file's bytes fails here.
Regenerate a file only with a deliberate change of the format or of the
answers, by rerunning the command its test names.  ``tests/golden/demos/``
holds the stdout of the demos that print no timings; the CI workflow diffs
each demo's output against it.
"""

from pathlib import Path

import pytest

from greenberg.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,name", [
    (("verify", "--f", "949", "--format", "json"), "verify_949.json"),
    (("verify", "--f", "6817", "--format", "json"), "verify_6817.json"),
    (("table", "--min", "3", "--max", "150", "--format", "csv"), "table_3_150.csv"),
    # 323 = 3 mod 4: the eta product without the a, -a pairing
    (("verify", "--f", "323", "--format", "json"), "verify_323.json"),
    # the deep non-split row: pins stabilized_after of all ten levels
    (("verify", "--f", "1605", "--format", "json"), "verify_1605.json"),
    # split: level 10 inserts 16 s before M drops, s odd first at degree 5
    (("verify", "--f", "1201", "--format", "json"), "verify_1201.json"),
])
def test_certificate(argv, name, capsys, monkeypatch):
    monkeypatch.delenv("GREENBERG_CACHE", raising=False)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.slow
def test_table_below_10000(capsys, monkeypatch):
    # every odd squarefree f < 10000, the range of the paper's theorem
    monkeypatch.delenv("GREENBERG_CACHE", raising=False)
    argv = ["table", "--min", "3", "--max", "10000", "--jobs", "2", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "table_3_10000.csv").read_text()


def test_certificate_from_cache_949(tmp_path, capsys):
    # the first run computes and stores the records, the second reads them
    argv = ["verify", "--f", "949", "--format", "json", "--cache-dir", str(tmp_path)]
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / "verify_949.json").read_text()


def _check_cache_files(f, levels, tmp_path):
    # verify --f F --cache-dir DIR writes one file per level
    assert main(["verify", "--f", str(f), "--cache-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"logs_{f}_{n}.txt" for n in range(1, levels + 1)]
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_cache_files_949(tmp_path, capsys):
    _check_cache_files(949, 2, tmp_path)


def test_cache_files_323(tmp_path, capsys):
    _check_cache_files(323, 4, tmp_path)
