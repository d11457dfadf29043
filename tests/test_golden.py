"""Certificates and cache files of fixed runs, byte for byte.

``tests/golden/`` holds what the command line printed and wrote for these
runs; any change to a certificate's or a cache file's bytes fails here.
Regenerate a file only with a deliberate change of the format or of the
answers, by rerunning the command its test names.
"""

from pathlib import Path

import pytest

from greenberg.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,name", [
    (("verify", "--f", "949", "--format", "json"), "verify_949.json"),
    (("verify", "--f", "6817", "--format", "json"), "verify_6817.json"),
    (("table", "--min", "3", "--max", "150", "--format", "csv"), "table_3_150.csv"),
])
def test_certificate(argv, name, capsys, monkeypatch):
    monkeypatch.delenv("GREENBERG_CACHE", raising=False)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_cache_files_949(tmp_path, capsys):
    # verify --f 949 --cache-dir DIR writes one file per level
    assert main(["verify", "--f", "949", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["logs_949_1.txt", "logs_949_2.txt"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
