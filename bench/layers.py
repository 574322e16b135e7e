"""Which xkd functions a traced run watches, and the per-layer metrics.

Every span reports ``<span>.calls`` and ``<span>.self_ms``, both per
operation; ``bench.op`` is the root span of one operation, so its self time
is harness glue plus the unwatched code (potential building, phase
bookkeeping).  The self times of all spans add up to ``bench.self_sum_ms``,
which sits within the tracing overhead of ``bench.traced_op_ms``.
"""

from __future__ import annotations

from xkd import diffraction, fitting, potentials, verify

from tracer import Tracer

# span name -> the (owner, attribute) pairs it watches; every module
# attribute bound to the same function is patched too
SPANS = {
    "bench.op": [],
    "verify.run_checks": [(verify, "run_checks")],
    "fitting.fit_quadrupole": [(fitting, "fit_quadrupole")],
    "fitting.fit_dipole": [(fitting, "fit_dipole")],
    "fitting.equivalent_triples": [(fitting, "equivalent_triples")],
    "fitting.model": [(fitting, "_quad_model"), (fitting, "_dipole_model")],
    "fitting.observed_pattern": [(fitting.ObservedPattern, "from_arrays")],
    "diffraction.quadrupole_pattern": [(diffraction, "quadrupole_pattern")],
    "diffraction.dipole_pattern": [(diffraction, "dipole_pattern")],
    "diffraction.bessel_J": [(diffraction, "bessel_J")],
    "diffraction.lookup": [(diffraction.DiffractionPattern, "amplitude"),
                           (diffraction.DiffractionPattern, "intensity")],
    "diffraction.phase_grating_oracle": [(diffraction, "phase_grating_oracle")],
    "potentials.evaluate_potential": [(potentials, "evaluate_potential")],
    "potentials.time_average": [(potentials, "time_average")],
}
PATTERN_SPANS = ("diffraction.quadrupole_pattern", "diffraction.dipole_pattern",
                 "diffraction.phase_grating_oracle")
FIT_SPANS = ("fitting.fit_quadrupole", "fitting.fit_dipole")
CHECKS = ("analytic_vs_oracle", "unitarity", "odd_order_parity", "dipole_reduction",
          "bessel_identities", "time_averages", "fit_round_trip")

# name -> (unit, better), in the order a traced run prints them
METRICS = {
    **{f"{span}.{stat}": (unit, "lower")
       for span in SPANS for stat, unit in (("calls", "1/op"), ("self_ms", "ms/op"))},
    "diffraction.orders_out": ("1/call", "lower"),
    "fitting.iterations": ("1/fit", "lower"),
    "fitting.model_evals": ("1/fit", "lower"),
    "fitting.accept_ratio": ("fraction", "higher"),
    "fitting.rejected_inputs": ("1/op", "lower"),
    **{f"verify.dev.{name}": ("1", "lower") for name in CHECKS},
    "bench.untraced_op_ms": ("ms", "lower"),
    "bench.traced_op_ms": ("ms", "lower"),
    "bench.self_sum_ms": ("ms", "lower"),
    "bench.trace_overhead": ("fraction", "lower"),
}


def make_tracer() -> Tracer:
    def orders(pattern):
        return {"orders": len(pattern.orders)}

    def iterations(result):
        return {"iterations": result.iterations}

    hooks = {**{s: orders for s in PATTERN_SPANS}, **{s: iterations for s in FIT_SPANS}}
    return Tracer({k: v for k, v in SPANS.items() if v}, hooks)


def per_layer(tracer: Tracer, outcome, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)} for one traced run."""
    ops = outcome.attempted
    stats = tracer.stats

    def total(names, key):
        return sum(getattr(stats[n], key) if n in stats else 0 for n in names)

    def extra(names, key):
        return sum(stats[n].extra.get(key, 0.0) for n in names if n in stats)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for span in SPANS:
        values[f"{span}.calls"] = total([span], "calls") / ops
        values[f"{span}.self_ms"] = 1e3 * total([span], "self_s") / ops
    fits = total(FIT_SPANS, "calls") - total(FIT_SPANS, "errors")
    model_calls = total(["fitting.model"], "calls")
    values.update({
        "diffraction.orders_out": ratio(extra(PATTERN_SPANS, "orders"),
                                        total(PATTERN_SPANS, "calls")),
        "fitting.iterations": ratio(extra(FIT_SPANS, "iterations"), fits),
        "fitting.model_evals": ratio(model_calls, fits),
        "fitting.accept_ratio": ratio(extra(FIT_SPANS, "iterations"), model_calls),
        "fitting.rejected_inputs": total(["fitting.observed_pattern"], "errors") / ops,
        **{f"verify.dev.{name}": outcome.diagnostics.get(f"verify.dev.{name}", 0.0)
           for name in CHECKS},
        "bench.untraced_op_ms": 1e3 * plain_s / ops,
        "bench.traced_op_ms": 1e3 * traced_s / ops,
        "bench.self_sum_ms": 1e3 * total(SPANS, "self_s") / ops,
        "bench.trace_overhead": traced_s / plain_s - 1.0,
    })
    return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}
