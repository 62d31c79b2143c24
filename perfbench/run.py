"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compute --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced passes with passes traced by
:mod:`perfbench.layers` and reports the per-layer metrics, the
unattributed remainder and the tracing overhead.  Both print readable
tables first and one JSON object as the last line of standard output.

The exit code is 0 when every correctness check held, 1 when the gate
found a violation (the JSON line is still printed) and 2 when there is no
``src/repro`` next to the benchmark to measure.

Load model: a closed loop with one client.  One process runs one job at
a time; the campaign uses the serial engine (no workers).  A run repeats
whole passes of its workload while another pass of average length still
fits in ``--seconds``; each job's host time is the median over passes,
and ``host_s`` is the sum of those medians, so the per-mode ``host_s.*``
sum to it exactly.  Host times are calibrated seconds (see
:mod:`perfbench.probe`); the end-to-end table also prints the plain wall
time of a pass.  ``setup_s`` is the median of five cold set-ups, each in a
fresh interpreter.

Noise on the 2-vCPU shared Xeon VM the benchmark was defined on: the same
job's wall time moved by up to 2x within minutes (sjeng baseline
0.75-1.42 s over fifteen passes) with CPU time equal to wall time, i.e.
neighbours slow the core rather than take it away.  Across five 40 s runs
the quartile spread of uncalibrated per-mode ``host_s`` was 0.13-0.25;
calibrated, it was 0.02-0.10.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cold set-up measurements per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def measure_setup(programs) -> List[Dict[str, float]]:
    """Time import + build + compile in fresh interpreters, one at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.setup_probe", *programs],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _keep_going(start: float, seconds: float, rounds: List[float]) -> bool:
    """Start another round only if one of average length still fits."""
    elapsed = time.perf_counter() - start
    return elapsed + sum(rounds) / len(rounds) <= seconds


def _result_line(correct: bool, attempted: int, failed: int,
                 values: Dict[str, float], units: Dict[str, str]) -> str:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is "
              f"missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import report
    from perfbench.catalogue import END_TO_END, PER_LAYER
    from perfbench.layers import Tracer
    from perfbench.probe import SpeedProbe
    from perfbench.workloads import PROGRAMS, Gate, Ledger, build_jobs, \
        run_pass

    if args.workload not in PROGRAMS:
        parser.error(f"--workload must be one of {sorted(PROGRAMS)}")

    setup = measure_setup(PROGRAMS[args.workload])
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    try:
        jobs = build_jobs(args.workload, args.seed, scratch)
        gate = Gate()
        plain = Ledger()
        traced = tracer = None
        rounds: List[float] = []
        start = time.perf_counter()
        with SpeedProbe() as probe:
            if not args.trace:
                while not rounds or _keep_going(start, args.seconds, rounds):
                    rounds.append(run_pass(jobs, gate, plain, probe))
            else:
                traced = Ledger()
                tracer = Tracer()
                while not rounds or _keep_going(start, args.seconds, rounds):
                    round_s = run_pass(jobs, gate, plain, probe)
                    with tracer:
                        round_s += run_pass(jobs, gate, traced, probe)
                    rounds.append(round_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledgers = [plain] + ([traced] if traced is not None else [])
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    problems = [p for ledger in ledgers for p in ledger.problems]

    e2e = report.end_to_end(args.workload, jobs, plain, setup, rss_mb)
    print(report.render_end_to_end(args.workload, e2e, attempted, failed))
    if tracer is None:
        values, units = e2e, END_TO_END
    else:
        values = report.per_layer(plain, traced, tracer, setup)
        units = PER_LAYER
        print()
        print(report.render_layers(values, tracer))
    for problem in problems:
        print(f"CORRECTNESS: {problem}")
    print(_result_line(not problems and failed == 0, attempted, failed,
                       values, units))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
