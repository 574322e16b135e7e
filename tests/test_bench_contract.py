"""What the benchmark in bench/ needs from the package, checked in-process.

The benchmark watches package functions by name (``bench/layers.py``) and
drives them through its workloads (``bench/workloads.py``).  Its own smoke
test, ``bench/test_smoke.py``, runs it in subprocesses and is not part of
this suite, so a rename or signature change that breaks
``bench/run.py --trace 1`` would otherwise go unnoticed here.  This test
only reads bench/.
"""

from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads

    return layers, workloads


def test_each_workload_runs_one_seeded_op_untraced_and_traced(bench):
    layers, workloads = bench
    for name, work in workloads.WORKLOADS.items():
        work.warmup()
        inp = work.make_round(np.random.default_rng(7))[0]
        out = work.op(inp)
        _, sound, _ = work.check(inp, out)
        assert sound, name
        tracer = layers.make_tracer()
        # installing resolves every watched (owner, attribute) in
        # layers.SPANS through inspect.getattr_static, as a traced run does
        with tracer.installed():
            traced = tracer.call("bench.op", work.op, inp)
        assert work.digest(traced) == work.digest(out), name
        assert tracer.stats["bench.op"].calls == 1
