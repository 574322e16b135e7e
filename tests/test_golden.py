"""Byte-for-byte checks of shipped outputs against captured reference files.

``tests/data`` holds the report of ``xkd verify --seed 7`` and the JSON of
``xkd fit --config configs/fit_dipole.json``.  A change that is meant to
leave behaviour alone (a speed-up, a refactor) must leave these bytes alone;
one that moves them on purpose recaptures the files and says why.
"""

from pathlib import Path

from xkd import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def test_verify_seed_7_report_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert cli.main(["verify", "--seed", "7", "--out", str(out)]) == 0
    expected = (DATA / "verify_seed7.txt").read_bytes()
    assert out.read_bytes() == expected
    assert capsys.readouterr().out.encode() == expected


def test_shipped_dipole_fit_is_byte_identical(tmp_path, monkeypatch):
    # the shipped config names its observations relative to the repo root
    monkeypatch.chdir(ROOT)
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--config", "configs/fit_dipole.json", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "fit_dipole.json").read_bytes()
