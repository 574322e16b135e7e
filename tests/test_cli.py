"""CLI behaviour: file formats, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from xkd import cli, diffraction
from xkd.constants import EV, HBAR
from xkd.diffraction import dipole_pattern
from xkd.potentials import (
    AtomSpecies,
    LaserGrating,
    build_potential,
    lightshift_depth,
    quadrupole_scales,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def strict_json(text):
    """``json.loads`` that refuses Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def dipole_config(tmp_path, theta0=1.0, tau=1e-12):
    # depth chosen so the imprinted phase is exactly -theta0 (attractive well)
    u0_ev = -theta0 * 2.0 * HBAR / (tau * EV)
    return write_json(
        tmp_path / "pattern.json",
        {"wavelength_m": 5e-10, "tau_s": tau, "U0_eV": u0_ev},
    )


def plan_config(tmp_path, **overrides):
    doc = {
        "atom": "demo",
        "wavelength_m": 5e-10,
        "U_target_eV": 1e-3,
        "pulse_duration_s": 1e-12,
        "spot_radius_m": 1e-6,
    }
    doc.update(overrides)
    return write_json(tmp_path / "plan.json", doc)


class TestPattern:
    def test_dipole_csv(self, tmp_path, capsys):
        cfg = dipole_config(tmp_path, theta0=1.0)
        out = tmp_path / "pattern.csv"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,amplitude_re,amplitude_im,intensity"
        center = next(l for l in lines if l.startswith("0,"))
        assert float(center.split(",")[3]) == pytest.approx(
            0.585527499513664, rel=1e-12
        )
        assert "truncation residual" in capsys.readouterr().out

    def test_zero_potential_single_order(self, tmp_path):
        cfg = write_json(
            tmp_path / "p.json",
            {"wavelength_m": 5e-10, "tau_s": 1e-12, "U0_eV": 0.0},
        )
        out = tmp_path / "p.csv"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["0,1.0,0.0,1.0"]

    def test_quadrupole_scenario_parity_and_determinism(self, tmp_path):
        cfg = write_json(
            tmp_path / "q.json",
            {
                "wavelength_m": 5e-10,
                "tau_s": 1e-12,
                "atom": "demo",
                "intensity_W_m2": 1.9e14,
            },
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["pattern", "--config", cfg, "--out", str(out2)]) == 0
        text = out1.read_text()
        assert text == out2.read_text()  # byte-stable
        orders = [int(line.split(",")[0]) for line in text.splitlines()[1:]]
        assert all(q % 2 == 0 for q in orders)

    def test_json_output_and_plot(self, tmp_path):
        cfg = dipole_config(tmp_path, theta0=0.7)
        out = tmp_path / "pattern_doc.json"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out), "--plot"]) == 0
        doc = json.loads(out.read_text())
        assert doc["orders"][len(doc["orders"]) // 2] == 0
        svg = (tmp_path / "pattern_doc.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_plot_labels_the_orders_at_one_percent_of_the_peak(self, tmp_path):
        # labels are drawn only for patterns of at most 40 orders
        cfg = write_json(tmp_path / "few.json",
                         {"wavelength_m": 5e-10, "tau_s": 1e-12, "U0_eV": -5e-4})
        out = tmp_path / "few.csv"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out), "--plot"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 39
        top = max(float(row[3]) for row in rows)
        bright = [int(row[0]) for row in rows if float(row[3]) >= 0.01 * top]
        assert bright == [-2, 0, 2]
        svg = (tmp_path / "few.svg").read_text()
        assert [int(q) for q in re.findall(r'font-size="10">(-?\d+)</text>', svg)] == bright

    def test_plot_onto_the_out_file_exits_one(self, tmp_path, capsys):
        # the chart would overwrite the pattern written to --out
        cfg = dipole_config(tmp_path, theta0=0.7)
        out = tmp_path / "pattern.svg"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out), "--plot"]) == 1
        assert f"--out {out}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_a_byte_order_mark(self, tmp_path):
        cfg = dipole_config(tmp_path, theta0=0.7)
        text = Path(cfg).read_text(encoding="utf-8")
        marked = tmp_path / "marked.json"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf{")
        outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
        for path, out in zip((cfg, str(marked)), outs):
            assert cli.main(["pattern", "--config", path, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_exclusive_potential_sources(self, tmp_path):
        cfg = write_json(
            tmp_path / "p.json",
            {
                "wavelength_m": 5e-10,
                "tau_s": 1e-12,
                "U0_eV": -1e-3,
                "atom": "demo",
                "intensity_W_m2": 1e14,
            },
        )
        assert cli.main(["pattern", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


    @pytest.mark.parametrize("extra, stray, source", [
        ({"U0_eV": -0.0013, "intensity_W_m2": 1e20, "spot_radius_m": 5, "catalog": "nope.json"},
         "'intensity_W_m2', 'spot_radius_m', 'catalog'", "'U0_eV'"),
        ({"U0_eV": -0.0013, "catalog": "nope.json"}, "'catalog'", "'U0_eV'"),
        ({"atom": "demo", "intensity_W_m2": 1.9e14, "UA_eV": 1e-4}, "'UA_eV'", "'atom'"),
        ({"atom": "demo", "intensity_W_m2": 1.9e14, "UC_eV": 0.0}, "'UC_eV'", "'atom'"),
    ])
    def test_keys_of_the_other_source_exit_one(self, tmp_path, capsys, extra, stray, source):
        # each source's keys would be ignored silently under the other one
        cfg = write_json(tmp_path / "p.json", {"wavelength_m": 5e-10, "tau_s": 1e-12, **extra})
        out = tmp_path / "x.csv"
        assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"key {stray} does not go with key {source}" in err, err
        assert not out.exists()


class TestPlan:
    def test_feasible_scenario_exits_zero(self, tmp_path, capsys):
        cfg = plan_config(tmp_path)
        out = tmp_path / "report.json"
        assert cli.main(["plan", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured
        report = json.loads(out.read_text())
        assert report["flags"]["diffraction_regime"] is True
        assert 0 < report["gamma_tau"] < 5e-3

    def test_zero_intensity_exits_two(self, tmp_path):
        cfg = plan_config(tmp_path, U_target_eV=0.0)
        assert cli.main(["plan", "--config", cfg]) == 2

    def test_malformed_config_names_key(self, tmp_path, capsys):
        cfg = plan_config(tmp_path)
        doc = json.loads(open(cfg).read())
        del doc["pulse_duration_s"]
        cfg2 = write_json(tmp_path / "bad.json", doc)
        assert cli.main(["plan", "--config", cfg2]) == 1
        assert "pulse_duration_s" in capsys.readouterr().err

    def test_exclusive_intensity_or_target(self, tmp_path, capsys):
        cfg = plan_config(tmp_path, intensity_W_m2=1e14)
        assert cli.main(["plan", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "intensity_W_m2" in err and "U_target_eV" in err

    def test_unknown_species_listed(self, tmp_path, capsys):
        cfg = plan_config(tmp_path, atom="unobtainium")
        assert cli.main(["plan", "--config", cfg]) == 1
        assert "unobtainium" in capsys.readouterr().err

    def test_inline_atom(self, tmp_path):
        cfg = plan_config(
            tmp_path,
            atom={
                "mass_kg": 2.508932885535e-26,
                "alpha_m3": 1e-29,
                "ionization_energy_eV": 10.0,
                "sigma_table": [[30.0, 8e-21], [3000.0, 8e-22]],
            },
        )
        assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

    def test_custom_catalog_path(self, tmp_path):
        catalog = {
            "species": [
                {
                    "name": "custom",
                    "mass_kg": 2.5e-26,
                    "alpha_m3": 1e-29,
                    "ionization_energy_eV": 8.0,
                    "sigma_table": [[30.0, 8e-21], [3000.0, 8e-22]],
                }
            ]
        }
        cat_path = write_json(tmp_path / "cat.json", catalog)
        cfg = plan_config(tmp_path, atom="custom", catalog=cat_path)
        out = tmp_path / "r.json"
        assert cli.main(["plan", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["atom"] == "custom"

    def test_catalog_must_be_a_path(self, tmp_path):
        # in a subprocess: open() takes a number as a file descriptor, so a
        # catalog of 2 that reached it would close this process's stderr
        cfg = plan_config(tmp_path, catalog=2)
        proc = subprocess.run(
            [sys.executable, "-m", "xkd", "plan", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "key 'catalog' must be a string" in proc.stderr

    def test_volume_override_flips_semiclassical_flag(self, tmp_path):
        # shrink the interaction volume until the photon count misses 1e6
        cfg = plan_config(tmp_path, volume_m3=1e-16)
        out = tmp_path / "r.json"
        assert cli.main(["plan", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert not report["flags"]["semiclassical"]
        assert report["photons_in_volume"] < 1e6

    def test_intensity_driven_scenario(self, tmp_path):
        cfg = plan_config(tmp_path, U_target_eV=None)
        doc = json.loads(open(cfg).read())
        del doc["U_target_eV"]
        doc["intensity_W_m2"] = 1.9111344317196095e14
        cfg2 = write_json(tmp_path / "p2.json", doc)
        out = tmp_path / "r2.json"
        assert cli.main(["plan", "--config", cfg2, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["U_target_eV"] == pytest.approx(1e-3, rel=1e-10)


class TestFit:
    def make_fit_inputs(self, tmp_path, theta0=1.0):
        pattern = dipole_pattern(theta0)
        rows = ["order,intensity"]
        rows += [
            f"{int(q)},{float(i)!r}"
            for q, i in zip(pattern.orders, pattern.intensities)
            if i > 1e-14
        ]
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = write_json(
            tmp_path / "fit.json",
            {
                "observations_csv": str(csv_path),
                "model": "dipole",
                "theta0_init": 0.5,
                "laser": {
                    "wavelength_m": 5e-10,
                    "intensity_W_m2": 1.9e14,
                    "tau_s": 1e-12,
                },
            },
        )
        return cfg

    def test_fit_report(self, tmp_path):
        cfg = self.make_fit_inputs(tmp_path)
        out = tmp_path / "fit_report.json"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["theta0_hat"] == pytest.approx(1.0, abs=1e-7)
        assert report["converged"] is True
        assert report["polarizabilities"]["alpha"] > 0

    def test_quadrupole_fit_recovers_a_positive_c_qq(self, tmp_path):
        # species with C_qq > 0 -> `xkd pattern` -> `xkd fit` with its laser:
        # the reported C_qq keeps the species' sign
        atom = {
            "mass_kg": 2.5e-26, "alpha_m3": 2.4e-29, "ionization_energy_eV": 10.0,
            "sigma_table": [[100.0, 5e-22]], "A_dq": 30.0, "C_qq": 30.0,
        }
        laser = {"wavelength_m": 5e-10, "intensity_W_m2": 4e15, "tau_s": 1e-12}
        cfg = write_json(
            tmp_path / "p.json",
            {"wavelength_m": 5e-10, "tau_s": 1e-12, "atom": atom, "intensity_W_m2": 4e15},
        )
        pattern_out = tmp_path / "pattern.json"
        assert cli.main(["pattern", "--config", cfg, "--out", str(pattern_out)]) == 0
        doc = json.loads(pattern_out.read_text())
        rows = [f"{q},{i!r}" for q, i in zip(doc["orders"], doc["intensities"]) if i > 1e-8]
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("order,intensity\n" + "\n".join(rows) + "\n")
        species = AtomSpecies("t", 2.5e-26, 2.4e-29, 10.0, ((100.0, 5e-22),), 30.0, 30.0)
        grating = LaserGrating(5e-10, 4e15, 1e-12, 1e-6)
        depths = (lightshift_depth(species, grating), *quadrupole_scales(species, grating))
        truth = diffraction.phases_from_potential(build_potential(*depths, grating.k_L), 1e-12)
        init = {"theta0": truth.theta0, "thetaA2": truth.thetaA2, "thetaC4": truth.thetaC4}
        fit_cfg = write_json(
            tmp_path / "fit.json",
            {"observations_csv": str(csv_path), "model": "quadrupole", "init": init,
             "laser": laser},
        )
        out = tmp_path / "fit_report.json"
        assert cli.main(["fit", "--config", fit_cfg, "--out", str(out)]) == 0
        estimate = json.loads(out.read_text())["polarizabilities"]
        assert estimate["C_qq"] == pytest.approx(30.0, rel=1e-8)
        assert estimate["A_dq"] == pytest.approx(30.0, rel=1e-8)

    def test_non_convergence_exits_two(self, tmp_path, monkeypatch):
        from xkd import fitting

        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        cfg = self.make_fit_inputs(tmp_path)
        out = tmp_path / "fit_report.json"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert json.loads(out.read_text())["converged"] is False

    def test_misspelt_weight_column_exits_one_naming_the_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("order,intensity,weigth\n0,0.5,1\n2,0.25,1e-9\n-2,0.25,1\n")
        cfg = write_json(tmp_path / "fit.json",
                         {"observations_csv": str(csv_path), "model": "dipole"})
        out = tmp_path / "fit_report.json"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 1
        assert f"{csv_path}: expected header 'order,intensity[,weight]'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_observations_file(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "fit.json",
            {"observations_csv": str(tmp_path / "nope.csv"), "model": "dipole"},
        )
        assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_intensity_exits_one(self, tmp_path, capsys, bad):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text(f"order,intensity\n0,0.5\n2,{bad}\n-2,0.2\n")
        cfg = write_json(
            tmp_path / "fit.json", {"observations_csv": str(csv_path), "model": "dipole"}
        )
        out = tmp_path / "o.json"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "order 2: intensity must be finite" in err
        assert "obs.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("start, n_params", [
        ({"theta0_init": 0}, 1),
        ({"model": "quadrupole", "init": {"theta0": 0}}, 3),
    ])
    def test_stationary_start_writes_null_sigmas(self, tmp_path, start, n_params):
        # at theta0 = 0 no intensity moves with any phase, so the normal
        # matrix is zero: the fit is stuck at a nonzero residual, so it is
        # not converged (exit 2), degenerate, and no sigma is defined
        cfg = write_json(tmp_path / "fit.json", {**_shipped("fit_dipole.json"), **start})
        out = tmp_path / "fit_report.json"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        report = strict_json(out.read_text())
        assert report["converged"] is False and report["residual"] > 0.0
        assert report["degenerate"] is True
        assert report["param_sigma"] == [None] * n_params
        sigmas = [report["polarizabilities"][key] for key in ("alpha_sigma", "A_sigma", "C_sigma")]
        assert sigmas == [None] * 3

    def test_start_on_an_invariant_subspace_claims_success_only_at_the_data(self, tmp_path):
        # theta0 = thetaA2 = 0 keeps the exit wave pi-periodic, so only
        # orders 4k move and the theta0 and thetaA2 columns vanish up to
        # rounding; the fit may leave the subspace through that rounding,
        # but exit 0 must mean it reached the data
        start = {"model": "quadrupole", "init": {"theta0": 0, "thetaC4": 0.3}}
        cfg = write_json(tmp_path / "fit.json", {**_shipped("fit_dipole.json"), **start})
        out = tmp_path / "fit_report.json"
        code = cli.main(["fit", "--config", cfg, "--out", str(out)])
        report = strict_json(out.read_text())
        if code == 0:
            assert report["converged"] is True and report["residual"] < 1e-20
        else:
            assert code == 2 and report["converged"] is False

    def test_start_with_an_overflowing_residual_exits_one(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("order,intensity,weight\n0,1e200,1e308\n2,1e200,1e308\n")
        cfg = write_json(tmp_path / "fit.json",
                         {"observations_csv": str(csv_path), "model": "dipole"})
        out = tmp_path / "o.json"
        # a subprocess, so a numpy warning would reach the stderr read here
        proc = subprocess.run(
            [sys.executable, "-m", "xkd", "fit", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"xkd: {cfg}: keys 'observations_csv' give an unusable value: the weighted "
            "residual at the start is not finite (weights or intensities too large)"
        ]
        assert not out.exists()


class TestVerify:
    def test_default_seed_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
        text = out.read_text()
        assert "all checks passed" in text
        assert text.count("PASS") == 7

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        # run in subprocesses: same seed must give identical bytes
        outs = []
        for name in ("v1.txt", "v2.txt"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "xkd", "verify", "--seed", "11", "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tampered_bessel_layer_fails(self, monkeypatch):
        real = diffraction.bessel_J

        def skewed(n, x):
            return real(n, x) * (1.0 + 1e-6)

        monkeypatch.setattr(diffraction, "bessel_J", skewed)
        assert cli.main(["verify", "--seed", "0"]) != 0


REPO = Path(__file__).resolve().parents[1]


class TestClosedStdout:
    # the reader closes the pipe while the child still imports numpy, so its
    # first write meets EPIPE; buffered or not, the child must exit 141 with
    # nothing on stderr, its files written in full
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv, golden", [
        (["verify", "--seed", "7"], "verify_seed7.txt"),
        (["plan", "--config", "configs/plan_xray.json"], "plan_xray.json"),
        (["pattern", "--config", "configs/pattern_dipole.json"], "pattern_dipole.csv"),
    ], ids=["verify", "plan", "pattern"])
    def test_exits_141_quietly_and_keeps_the_out_file(self, tmp_path, argv, golden, unbuffered):
        out = tmp_path / golden
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "xkd", *argv, "--out", str(out)],
            cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert stderr == b""
        assert out.read_bytes() == (REPO / "tests" / "data" / golden).read_bytes()


class TestUsageErrors:
    def test_missing_config_file(self, capsys):
        assert cli.main(["plan", "--config", "/no/such/file.json"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_negative_seed_names_the_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--seed", "-1"])
        assert exc.value.code == 1
        assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Input contract: every malformed config exits 1 naming a key, never a traceback
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
INLINE_ATOM = {
    "mass_kg": 2.508932885535e-26,
    "alpha_m3": 1e-29,
    "ionization_energy_eV": 10.0,
    "sigma_table": [[30.0, 8e-21], [3000.0, 8e-22]],
    "A_dq": 0.5,
    "C_qq": 0.2,
}


def _shipped(name):
    doc = json.loads((CONFIGS / name).read_text())
    if "observations_csv" in doc:
        doc["observations_csv"] = str(CONFIGS.parent / doc["observations_csv"])
    return doc


# the four shipped configs, plus variants that carry an inline atom and a
# quadrupole `init`, each with the optional keys it may also hold
BASES = {
    "fit_dipole": ("fit", _shipped("fit_dipole.json"), ["laser.spot_radius_m"]),
    "fit_quadrupole": (
        "fit",
        {
            **_shipped("fit_dipole.json"),
            "model": "quadrupole",
            "init": {"theta0": 0.5, "thetaA2": 0.1, "thetaC4": 0.0},
        },
        [],
    ),
    "pattern_dipole": ("pattern", _shipped("pattern_dipole.json"), ["UA_eV", "UC_eV"]),
    "pattern_quadrupole": ("pattern", _shipped("pattern_quadrupole.json"), ["spot_radius_m"]),
    "pattern_inline": ("pattern", {**_shipped("pattern_quadrupole.json"), "atom": INLINE_ATOM}, []),
    "plan_xray": ("plan", _shipped("plan_xray.json"), ["volume_m3", "min_photons", "catalog"]),
    "plan_inline": ("plan", {**_shipped("plan_xray.json"), "atom": INLINE_ATOM}, []),
}
DROP = "<drop>"
MISSPELL = "<misspell>"  # the key loses its last letter; an absent one is added so spelt
BAD_VALUES = [DROP, MISSPELL, "x", [1], None, True, math.nan, -1, 0, 1e308, 1e-308, 10**400]


def _paths(doc, prefix=()):
    """Every key path in ``doc``: nested objects and the sigma_table pairs too."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))
        elif key == "sigma_table":
            for i, pair in enumerate(value):
                for j in range(len(pair)):
                    yield prefix + (key, i, j)


def _targets(base):
    _, doc, optional = BASES[base]
    return list(_paths(doc)) + [tuple(key.split(".")) for key in optional]


mutations = st.sampled_from(sorted(BASES)).flatmap(
    lambda base: st.tuples(
        st.just(base), st.sampled_from(_targets(base)), st.sampled_from(BAD_VALUES)
    )
)

# malformed values and overflowing derived values that must each exit 1
# naming the key
KNOWN_BREAKS = [
    ("pattern_dipole", ("UA_eV",), [1]),
    ("plan_xray", ("U_target_eV",), None),
    ("fit_quadrupole", ("init", "theta0"), None),
    ("plan_xray", ("volume_m3",), "x"),
    ("pattern_dipole", ("tau_s",), 1e300),
    ("plan_xray", ("wavelength_m",), -1),
    ("fit_dipole", ("laser", "intensity_W_m2"), 1e-300),
    ("pattern_quadrupole", ("spot_radius_m",), MISSPELL),
    ("pattern_dipole", ("tau_s",), MISSPELL),
    ("fit_quadrupole", ("init", "thetaA2"), MISSPELL),
    ("fit_dipole", ("laser", "spot_radius_m"), MISSPELL),
    ("plan_inline", ("atom", "C_qq"), MISSPELL),
]


def _run_mutated(base, path, value):
    """Run the command on ``base`` with the value at ``path`` replaced.

    Returns the exit code, stderr and the keys on ``path``, the misspelt
    name in place of the last one: an exit-1 message must name one of them
    (for a field of an inline atom, naming 'atom' is enough).
    """
    command, doc, _ = BASES[base]
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is MISSPELL:
        if not isinstance(parent, list):
            key = path[-1]
            path = path[:-1] + (key[:-1],)
            parent[key[:-1]] = parent.pop(key, 1.0)
    elif value is DROP:
        if path[-1] in parent or isinstance(parent, list):
            del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_json(Path(tmp) / "cfg.json", doc)
        stderr = io.StringIO()
        out = Path(tmp) / "out.json"
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", cfg, "--out", str(out)])
        if out.exists():
            strict_json(out.read_text())
    return code, stderr.getvalue(), [step for step in path if isinstance(step, str)]


def _pinned(test):
    for case in KNOWN_BREAKS:
        test = example(case)(test)
    return test


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutations)
@_pinned
def test_mutated_config_keeps_the_exit_contract(case):
    code, err, keys = _run_mutated(*case)
    assert code in (0, 1, 2)
    if code == 1:
        assert any(f"'{key}'" in err for key in keys), err
    if case[2] is MISSPELL and isinstance(case[1][-1], str):
        assert code == 1 and f"unknown key '{keys[-1]}'" in err, err


@pytest.mark.parametrize("case", KNOWN_BREAKS)
def test_known_breaks_exit_one_naming_the_key(case):
    code, err, keys = _run_mutated(*case)
    assert code == 1
    assert f"'{keys[-1]}'" in err, err


def test_pattern_phase_beyond_the_engine_range_exits_one(tmp_path, capsys):
    # a finite phase of about -1e6 rad: bad input, not a numeric failure
    cfg = write_json(tmp_path / "far.json",
                     {"wavelength_m": 5e-10, "tau_s": 1e-6, "U0_eV": -0.0013})
    out = tmp_path / "p.csv"
    assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'tau_s'" in err and "'U0_eV'" in err and "numeric failure" not in err
    assert not out.exists()


def test_quadrupole_fit_start_beyond_the_engine_range_exits_one(tmp_path, capsys):
    doc = {**BASES["fit_quadrupole"][1], "init": {"theta0": 2e4}}
    cfg = write_json(tmp_path / "fit.json", doc)
    out = tmp_path / "fit_out.json"
    assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'init'" in err and "numeric failure" not in err
    assert not out.exists()


def test_misspelt_optional_keys_exit_one_naming_them(tmp_path, capsys):
    cfg = write_json(tmp_path / "typo.json", {"wavelength_m": 5e-10, "tau_s": 1e-12,
                                              "U0_eV": -0.0013, "tau": 3, "spot_radius": 2e-6})
    out = tmp_path / "p.csv"
    assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 1
    assert "unknown key 'spot_radius', 'tau'" in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_catalog_key_exits_one_naming_it(tmp_path, capsys):
    bundled = json.loads((CONFIGS.parent / "src/xkd/data/atoms.json").read_text())
    cfg = write_json(tmp_path / "pattern.json",
                     {**_shipped("pattern_quadrupole.json"), "catalog": str(tmp_path / "cat.json")})
    out = tmp_path / "p.csv"
    write_json(tmp_path / "cat.json", bundled)
    assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 0
    demo = next(entry for entry in bundled["species"] if entry["name"] == "demo")
    demo["A_qd"] = demo.pop("A_dq")
    write_json(tmp_path / "cat.json", bundled)
    out.unlink()
    assert cli.main(["pattern", "--config", cfg, "--out", str(out)]) == 1
    assert "unknown key 'A_qd'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("pattern", {"wavelength_m": 5e-10, "tau_s": 1e-12, "intensity_W_m2": 1.9e14}),
    ("plan", {"wavelength_m": 5e-10, "U_target_eV": 1e-3, "pulse_duration_s": 1e-12,
              "spot_radius_m": 1e-6}),
])
def test_catalog_next_to_an_inline_atom_exits_one_naming_it(tmp_path, capsys, command, doc):
    # the inline species is taken, so the catalog would be ignored silently
    atom = {"mass_kg": 3.8e-26, "alpha_m3": 2.4e-29, "ionization_energy_eV": 5.1,
            "sigma_table": [[100, 1e-22], [3000, 1e-24]]}
    out = tmp_path / "out.json"
    cfg = write_json(tmp_path / "inline.json", {**doc, "atom": atom})
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    out.unlink()
    cfg = write_json(tmp_path / "inline.json",
                     {**doc, "atom": atom, "catalog": "does_not_exist.json"})
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "key 'catalog' does not go with an inline key 'atom'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, base, catalog, named", [
    ("pattern", None, None, "cfg.json: top level must be an object"),
    ("plan", "plan_xray.json", [], "cat.json: top level must be an object"),
    ("pattern", "pattern_quadrupole.json", {"species": [1]},
     "species entry 0: species entry must be an object"),
], ids=["config-array", "catalog-array", "species-entry-number"])
def test_config_or_catalog_of_the_wrong_shape_exits_one(tmp_path, capsys, command, base, catalog,
                                                        named):
    cat = write_json(tmp_path / "cat.json", catalog)
    config = [1] if base is None else {**_shipped(base), "catalog": cat}
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()
