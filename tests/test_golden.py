"""Byte-for-byte checks of shipped outputs against captured reference files.

``tests/data`` holds the reports of ``xkd verify --seed`` 0, 3, 7 and 11,
the JSON and stdout of ``xkd fit --config configs/fit_dipole.json``, what
``xkd pattern`` writes for both shipped pattern configs (CSV, ``--plot``
SVG, JSON, and stdout with the out path replaced by ``OUT``), what
``xkd plan`` writes for ``configs/plan_xray.json`` (JSON and stdout), and
``quadrupole_fits.json``: the ``repr`` of every ``FitResult`` field of
seven quadrupole fits (the three inside ``run_checks(7)``, three noisy sets
of the benchmark's ``fit`` generator at seed 801, and one fit whose trial
steps leave a narrowed phase range), with the inputs of the last four.  A
change that is meant to leave behaviour alone (a speed-up, a refactor) must
leave these bytes alone; one that moves them on purpose recaptures the
files and says why.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from xkd import cli, diffraction, fitting, verify
from xkd.diffraction import PhaseSet

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
FITS = json.loads((DATA / "quadrupole_fits.json").read_text())


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_verify_report_is_byte_identical(seed, tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert cli.main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    expected = (DATA / f"verify_seed{seed}.txt").read_bytes()
    assert out.read_bytes() == expected
    assert capsys.readouterr().out.encode() == expected


def test_shipped_dipole_fit_is_byte_identical(tmp_path, monkeypatch, capsys):
    # the shipped config names its observations relative to the repo root
    monkeypatch.chdir(ROOT)
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--config", "configs/fit_dipole.json", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "fit_dipole.json").read_bytes()
    assert _stdout(capsys, out) == (DATA / "fit_dipole.stdout").read_text()


def _stdout(capsys, out) -> str:
    """What the last command printed, with its out path replaced by OUT."""
    return capsys.readouterr().out.replace(str(out), "OUT")


@pytest.mark.parametrize("name", ["pattern_dipole", "pattern_quadrupole"])
def test_shipped_pattern_documents_are_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    expected = (DATA / f"{name}.stdout").read_text()
    for out, extra in ((tmp_path / f"{name}.csv", ["--plot"]), (tmp_path / f"{name}.json", [])):
        argv = ["pattern", "--config", f"configs/{name}.json", "--out", str(out), *extra]
        assert cli.main(argv) == 0
        assert _stdout(capsys, out) == expected
    for ext in ("csv", "svg", "json"):
        assert (tmp_path / f"{name}.{ext}").read_bytes() == (DATA / f"{name}.{ext}").read_bytes()


def test_shipped_plan_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "plan_xray.json"
    assert cli.main(["plan", "--config", "configs/plan_xray.json", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "plan_xray.json").read_bytes()
    assert _stdout(capsys, out) == (DATA / "plan_xray.stdout").read_text()


def _fields(result: fitting.FitResult) -> dict:
    return {f.name: repr(getattr(result, f.name)) for f in dataclasses.fields(result)}


def test_verify_seed_7_quadrupole_fits_are_bit_identical(monkeypatch):
    results = []

    def recording(observed, init):
        results.append(fitting.fit_quadrupole(observed, init))
        return results[-1]

    monkeypatch.setattr(verify, "fit_quadrupole", recording)
    verify.run_checks(7)
    assert [_fields(r) for r in results] == FITS["verify_seed7"]


@pytest.mark.parametrize("case", FITS["cases"], ids=lambda case: case["name"])
def test_quadrupole_fit_is_bit_identical(case, monkeypatch):
    out_of_range = []
    model = fitting._quad_model

    def counting(params, orders):
        try:
            return model(params, orders)
        except diffraction.PhaseRangeError:
            out_of_range.append(tuple(params))
            raise

    monkeypatch.setattr(fitting, "_quad_model", counting)
    if case["max_phase"] is not None:
        monkeypatch.setattr(diffraction, "_MAX_BESSEL_ARG", case["max_phase"])
    observed = fitting.ObservedPattern.from_arrays(
        case["orders"], case["intensities"], case["weights"]
    )
    theta0, theta_a2, theta_c4 = case["init"]
    result = fitting.fit_quadrupole(observed, PhaseSet(theta0, theta_a2, thetaC4=theta_c4))
    assert _fields(result) == case["result"]
    # the narrowed-range case pins the path where a trial step is rejected
    # because it leaves the engine's domain
    assert bool(out_of_range) == (case["max_phase"] is not None)
