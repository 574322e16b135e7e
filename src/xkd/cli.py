"""Command-line interface: pattern, plan, fit and verify.

All inputs come from JSON config files and CSV observation files; outputs
are CSV/JSON documents plus an optional self-contained SVG bar chart.  For
a fixed config and seed every output is byte-identical across runs.  Exit
codes: 0 success, 1 invalid input, 2 one or more feasibility flags failed
or a fit did not converge (the report is still written), 3 a verify check
failed, 141 (128 + SIGPIPE) standard output closed by its reader (files
are still written, nothing is printed on stderr).  A JSON report never
holds a non-finite number: a fit sigma that the normal matrix leaves
undefined is written as null.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from .constants import EV
from . import diffraction, feasibility, fitting, verify as verify_mod
from .potentials import (
    AtomSpecies,
    CatalogError,
    LaserGrating,
    _known,
    _need,
    _parse_species,
    _read_object,
    build_potential,
    bundled_catalog,
    lightshift_depth,
    load_catalog,
    quadrupole_scales,
)

__all__ = ["main"]

# the keys each config object may hold; a command's set is the union over
# its models, so a fit config may carry `theta0_init` next to `init`
_PATTERN_KEYS = frozenset({"wavelength_m", "tau_s", "U0_eV", "UA_eV", "UC_eV", "atom",
                           "catalog", "intensity_W_m2", "spot_radius_m"})
_PLAN_KEYS = frozenset({"atom", "catalog", "wavelength_m", "pulse_duration_s", "spot_radius_m",
                        "U_target_eV", "intensity_W_m2", "volume_m3", "min_photons"})
_FIT_KEYS = frozenset({"observations_csv", "model", "theta0_init", "init", "laser"})
_INIT_KEYS = frozenset({"theta0", "thetaA2", "thetaC4"})
_LASER_KEYS = frozenset({"wavelength_m", "intensity_W_m2", "tau_s", "spot_radius_m"})


@contextlib.contextmanager
def _blame(doc: dict, where: str, *keys: str):
    """Report a value derived from ``keys`` that fails (say, a phase that
    overflows) against those of them that ``doc`` holds."""
    try:
        yield
    except CatalogError:
        raise
    except (ValueError, ArithmeticError) as exc:
        names = ", ".join(f"'{key}'" for key in keys if key in doc)
        raise CatalogError(f"{where}: keys {names} give an unusable value: {exc}") from exc


def _resolve_atom(doc: dict, where: str) -> AtomSpecies:
    selector = _need(doc, "atom", where, (str, dict))
    if isinstance(selector, dict):
        return _parse_species({"name": "inline", **selector}, f"{where}: key 'atom'")
    catalog_path = _need(doc, "catalog", where, str, default=None)
    try:
        catalog = bundled_catalog() if catalog_path is None else load_catalog(catalog_path)
    except (OSError, CatalogError) as exc:
        raise CatalogError(f"{where}: key 'catalog': {exc}") from exc
    if selector not in catalog:
        raise CatalogError(
            f"{where}: key 'atom': unknown species '{selector}' "
            f"(catalog has: {', '.join(sorted(catalog))})"
        )
    return catalog[selector]


def _pattern(doc: dict, where: str) -> diffraction.DiffractionPattern:
    tau, wavelength = (_need(doc, key, where, positive=True) for key in ("tau_s", "wavelength_m"))
    direct = "U0_eV" in doc
    if direct == ("atom" in doc):
        raise CatalogError(
            f"{where}: give exactly one of key 'U0_eV' (with optional "
            f"'UA_eV'/'UC_eV') or key 'atom' (with 'intensity_W_m2')"
        )
    with _blame(doc, where, "tau_s", "wavelength_m", "U0_eV", "UA_eV", "UC_eV", "atom",
                "intensity_W_m2"):
        if direct:
            depths = [
                _need(doc, key, where, default=0.0) * EV for key in ("U0_eV", "UA_eV", "UC_eV")
            ]
        else:
            atom = _resolve_atom(doc, where)
            intensity = _need(doc, "intensity_W_m2", where, nonnegative=True)
            spot = _need(doc, "spot_radius_m", where, default=1e-6, positive=True)
            laser = LaserGrating(wavelength, intensity, tau, spot)
            depths = [lightshift_depth(atom, laser), *quadrupole_scales(atom, laser)]
        model = build_potential(*depths, 2.0 * math.pi / wavelength)
        phases = diffraction.phases_from_potential(model, tau)
        return diffraction.quadrupole_pattern(phases)  # PhaseRangeError is a ValueError


def _pattern_svg(pattern: diffraction.DiffractionPattern) -> str:
    """Self-contained SVG bar chart of intensity against order."""
    orders = [int(q) for q in pattern.orders]
    intensities = [float(v) for v in pattern.intensities]
    width, height, margin = 640, 360, 46
    top = max(intensities)  # a pattern keeps probability ~1, so top > 0
    n = len(orders)
    slot = (width - 2 * margin) / n
    bar = max(slot * 0.6, 1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="13">diffraction order (units of the grating wavevector)</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">intensity</text>',
    ]
    for i, (q, v) in enumerate(zip(orders, intensities)):
        h = (height - 2 * margin) * v / top
        x = margin + slot * i + (slot - bar) / 2
        y = height - margin - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar:.2f}" height="{h:.2f}" '
            f'fill="#33658a"/>'
        )
        if v >= 0.01 * top and n <= 40:
            parts.append(
                f'<text x="{x + bar / 2:.2f}" y="{height - margin + 14}" '
                f'text-anchor="middle" font-size="10">{q}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict):
    # allow_nan=False: Infinity and NaN are not JSON (RFC 8259)
    _write(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_pattern(args: argparse.Namespace) -> int:
    doc = _known(_read_object(args.config), args.config, _PATTERN_KEYS)
    pattern = _pattern(doc, args.config)
    if args.out.endswith(".json"):
        _write_json(args.out, diffraction.pattern_to_dict(pattern))
    else:
        _write(args.out, diffraction.intensities_csv(pattern))
    if args.plot:
        _write(os.path.splitext(args.out)[0] + ".svg", _pattern_svg(pattern))
    print(
        f"pattern: {len(pattern.orders)} orders up to |q| = "
        f"{pattern.truncation_order}, truncation residual "
        f"{pattern.truncation_residual:.3e}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    doc = _known(_read_object(args.config), args.config, _PLAN_KEYS)
    where = args.config
    atom = _resolve_atom(doc, where)
    wavelength = _need(doc, "wavelength_m", where, positive=True)
    pulse = _need(doc, "pulse_duration_s", where, positive=True)
    spot = _need(doc, "spot_radius_m", where, positive=True)
    has_target = "U_target_eV" in doc
    if has_target == ("intensity_W_m2" in doc):
        raise CatalogError(
            f"{where}: give exactly one of key 'intensity_W_m2' or key 'U_target_eV'"
        )
    drive = _need(doc, "U_target_eV" if has_target else "intensity_W_m2", where, nonnegative=True)
    with _blame(doc, where, "atom", "wavelength_m", "pulse_duration_s", "spot_radius_m",
                "U_target_eV", "intensity_W_m2", "volume_m3", "min_photons"):
        if has_target:
            u_target = drive * EV
            intensity = feasibility.required_intensity(atom, u_target) if u_target > 0 else 0.0
            laser = LaserGrating(wavelength, intensity, pulse, spot)
        else:
            laser = LaserGrating(wavelength, drive, pulse, spot)
            u_target = atom.alpha * laser.E0_squared  # rule-of-thumb depth
        volume, min_photons = (
            _need(doc, key, where, default=value, positive=True)
            for key, value in (("volume_m3", feasibility.DEFAULT_INTERACTION_VOLUME),
                               ("min_photons", feasibility.DEFAULT_MIN_PHOTONS))
        )
        report = feasibility.plan_experiment(atom, laser, u_target, volume, min_photons)
    payload = dataclasses.asdict(report)
    payload["atom"] = atom.name
    payload["intensity_W_m2"] = laser.intensity
    payload["U_target_eV"] = u_target / EV
    if args.out:
        _write_json(args.out, payload)

    rows = [
        ("recoil energy", f"{report.recoil_energy:.6e} eV"),
        ("depth/recoil ratio", f"{report.regime_ratio:.4f}"),
        ("required intensity", f"{report.required_intensity:.6e} W/m^2"),
        ("planned intensity", f"{laser.intensity:.6e} W/m^2"),
        ("interaction time", f"{report.interaction_time:.6e} s"),
        ("photon energy", f"{report.photon_energy:.6e} eV"),
        ("ionization rate", f"{report.ionization_rate:.6e} 1/s"),
        ("Gamma*tau", f"{report.gamma_tau:.6e}"),
        ("survival fraction", f"{report.survival_fraction:.6f}"),
        ("photon density", f"{report.photon_density:.6e} 1/m^3"),
        ("photons in volume", f"{report.photons_in_volume:.6e}"),
        ("atom velocity needed", f"{report.atom_velocity_needed:.6e} m/s"),
    ]
    for label, value in rows:
        print(f"{label:<22s} {value}")
    for name, ok in dataclasses.asdict(report.flags).items():
        print(f"flag {name:<28s} {'PASS' if ok else 'FAIL'}")
    for note in report.notes:
        print(f"note: {note}")
    if args.out:
        print(f"wrote {args.out}")
    return 0 if report.flags.all_pass() else 2


def cmd_fit(args: argparse.Namespace) -> int:
    doc = _known(_read_object(args.config), args.config, _FIT_KEYS)
    where = args.config
    laser_doc = _need(doc, "laser", where, dict, default=None)
    laser_where = f"{where}: key 'laser'"
    if laser_doc is not None:
        _known(laser_doc, laser_where, _LASER_KEYS)
    csv_path = _need(doc, "observations_csv", where, str)
    if not os.path.exists(csv_path):
        raise CatalogError(f"{where}: key 'observations_csv': no such file {csv_path}")
    observed = fitting.ObservedPattern.from_csv(csv_path)
    model = _need(doc, "model", where, str)
    if model not in ("dipole", "quadrupole"):
        raise CatalogError(f"{where}: key 'model' must be 'dipole' or 'quadrupole'")
    with _blame(doc, where, "observations_csv", "theta0_init" if model == "dipole" else "init"):
        if model == "dipole":
            result = fitting.fit_dipole(observed, _need(doc, "theta0_init", where, default=0.5))
        else:
            init = _known(_need(doc, "init", where, dict, default={}), f"{where}: key 'init'",
                          _INIT_KEYS)
            theta0, theta_a2, theta_c4 = (
                _need(init, key, f"{where}: key 'init'", default=value)
                for key, value in (("theta0", 0.5), ("thetaA2", 0.0), ("thetaC4", 0.0))
            )
            start = diffraction.PhaseSet(theta0, theta_a2, thetaC4=theta_c4)
            result = fitting.fit_quadrupole(observed, start)

    payload = dataclasses.asdict(result)
    if laser_doc is not None:
        with _blame(laser_doc, laser_where, "wavelength_m", "intensity_W_m2", "tau_s"):
            laser = LaserGrating(
                *(_need(laser_doc, key, laser_where, positive=True)
                  for key in ("wavelength_m", "intensity_W_m2", "tau_s")),
                _need(laser_doc, "spot_radius_m", laser_where, default=1e-6, positive=True),
            )
            estimate = fitting.polarizability_estimates(result, laser, laser.pulse_duration)
        payload["polarizabilities"] = dataclasses.asdict(estimate)
    _write_json(args.out, payload)

    print(
        f"fit ({model}): theta0 = {result.theta0_hat:.8f}, "
        f"thetaA2 = {result.thetaA2_hat:.8f}, thetaC4 = {result.thetaC4_hat:.8f}"
    )
    print(
        f"residual {result.residual:.6e} after {result.iterations} iterations; "
        f"converged: {result.converged}"
    )
    print(result.covariance_note)
    print(f"wrote {args.out}")
    return 0 if result.converged else 2


def cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_mod.run_checks(seed=args.seed)
    text = verify_mod.format_report(checks, args.seed)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0 if all(c.passed for c in checks) else 3


class _Parser(argparse.ArgumentParser):
    # invalid command-line input exits 1 (2 is reserved for failed flags)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="xkd",
        description=(
            "Standing-wave atom diffraction: pattern computation, "
            "feasibility planning, intensity fitting and self-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pattern = sub.add_parser(
        "pattern", help="compute per-order diffraction intensities"
    )
    p_pattern.add_argument("--config", required=True, help="scenario JSON")
    p_pattern.add_argument("--out", required=True, help="output CSV (or .json)")
    p_pattern.add_argument("--plot", action="store_true", help="also write an SVG chart")

    p_plan = sub.add_parser("plan", help="evaluate the feasibility envelope")
    p_plan.add_argument("--config", required=True, help="scenario JSON")
    p_plan.add_argument("--out", default=None, help="report JSON")

    p_fit = sub.add_parser("fit", help="fit phases to observed intensities")
    p_fit.add_argument("--config", required=True, help="fit JSON")
    p_fit.add_argument("--out", required=True, help="fit report JSON")

    p_verify = sub.add_parser("verify", help="run the seeded self-check suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="report text file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = getattr(args, "config", None)
    if config is not None and not os.path.exists(config):
        print(f"xkd: no such config file: {config}", file=sys.stderr)
        return 1
    handler = {
        "pattern": cmd_pattern,
        "plan": cmd_plan,
        "fit": cmd_fit,
        "verify": cmd_verify,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed reader fails here, not in the interpreter's last flush
        return code
    # BrokenPipeError is an OSError, so it must be caught before invalid input
    except BrokenPipeError:
        # exit as SIGPIPE would; devnull keeps the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"xkd: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
