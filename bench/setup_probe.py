"""Time the set-up one xkd user process pays before its first real call.

    python3 bench/setup_probe.py {scan,fit,verify}

Measures ``import xkd``, ``bundled_catalog()`` and one cheap warm-up call
into each layer the workload uses, from inside a fresh interpreter, and
prints the seconds.  Interpreter start-up is not included.
"""

import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import xkd

    xkd.bundled_catalog()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].warmup()
    print(perf_counter() - t0)
