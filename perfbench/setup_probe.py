"""One cold set-up measurement, printed as a JSON line.

Run in a fresh interpreter (``python3 -m perfbench.setup_probe PROGRAM...``
with ``src`` on ``PYTHONPATH``) so that importing ``repro`` is really paid
each time.  Times the import of the entry points the benchmark drives,
``Benchmark.build`` and ``compile_source`` of each named program's first
input, in calibrated seconds (see :mod:`perfbench.probe`).  The module
imports nothing from ``repro`` at load time.
"""

from __future__ import annotations

import json
import sys
import time

from perfbench.probe import SpeedProbe


def measure(programs, probe: SpeedProbe):
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)
    from repro.faults import FaultInjector  # noqa: F401
    from repro.harness.runner import run_baseline, run_protected  # noqa: F401
    from repro.minic import compile_source
    from repro.workloads.registry import benchmark
    spans = {"import_s": [(start, time.perf_counter())],
             "build_s": [], "compile_s": []}
    for name in programs:
        bench = benchmark(name)
        start = time.perf_counter()
        source, _files = bench.build(1, 1)
        middle = time.perf_counter()
        compile_source(source, name=name)
        spans["build_s"].append((start, middle))
        spans["compile_s"].append((middle, time.perf_counter()))
    return {part: sum(probe.calibrated(*span) for span in parts)
            for part, parts in spans.items()}


if __name__ == "__main__":
    with SpeedProbe() as speed:
        measured = measure(sys.argv[1:], speed)
    print(json.dumps(measured))
