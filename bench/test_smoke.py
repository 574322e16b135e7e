"""Smoke test of the benchmark harness itself.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at its smallest size, untraced and traced, and checks
that each metric of BENCHMARK.json prints with its name and unit and that
both runs compute identical outputs; checks that tracing patches every
binding of a watched function and restores it; and checks that the
benchmark refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_print_and_traced_outputs_match(workload):
    records = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run_bench(ROOT, workload, trace)
        assert done.returncode == 0, done.stderr
        *_, record, result = done.stdout.splitlines()
        records[trace] = json.loads(record)
        result = json.loads(result)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert records[1]["traced_output_mismatches"] == 0
    assert records[0]["outputs_sha256"] == records[1]["outputs_sha256"]


def test_tracer_patches_every_binding_and_restores():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import layers
    from xkd import diffraction, fitting, potentials, verify

    bindings = {
        (verify, "fit_quadrupole"): fitting.fit_quadrupole,
        (verify, "equivalent_triples"): fitting.equivalent_triples,
        (verify, "time_average"): potentials.time_average,
        (diffraction, "evaluate_potential"): potentials.evaluate_potential,
    }
    tracer = layers.make_tracer()
    with tracer.installed():
        for (module, name), original in bindings.items():
            assert getattr(module, name).__wrapped__ is original
        tracer.call("bench.op", verify.time_average, math.cos)
    for (module, name), original in bindings.items():
        assert getattr(module, name) is original
    assert tracer.stats["potentials.time_average"].calls == 1
    assert tracer.stats["bench.op"].self_s >= 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "scan", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
