"""Behaviour fingerprints: one digest per benchmark x detection mode.

Each entry digests what one run of the benchmark's first input shows:
stdout, exit code, simulated wall time and energy and, under the
protected modes, ``RunStats.to_dict()``, the phase totals and the kinds
of the run's trace events in emission order.  A speed-up
or refactor must leave every digest unchanged; ``tests/test_fingerprints.py``
asserts that against the committed ``tests/golden/fingerprints.json``.  A
fingerprint change is a deliberate event: regenerate the file and say why.

The digests are of runs with an unbounded frame pool, so the script (and
the test) clear ``REPRO_MEM_BUDGET`` before running.

Usage:
    PYTHONPATH=src python scripts/fingerprints.py          # compare
    PYTHONPATH=src python scripts/fingerprints.py --write  # regenerate
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

BENCHMARKS = ("sjeng", "namd", "povray", "mcf", "lbm", "milc")
MODES = ("baseline", "parallaft", "raft", "tmr")
GOLDEN = (Path(__file__).resolve().parent.parent
          / "tests" / "golden" / "fingerprints.json")


def fingerprint(name: str, mode: str) -> Dict[str, str]:
    """Run input 1 of ``name`` under ``mode`` and digest its behaviour."""
    from repro.harness.runner import run_baseline, run_protected
    from repro.workloads.registry import benchmark

    bench = dataclasses.replace(benchmark(name), n_inputs=1)
    trace_kinds = None
    if mode == "baseline":
        result = run_baseline(bench)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            trace_path = os.path.join(tmp, "trace.json")
            result = run_protected(bench, mode=mode, trace_path=trace_path)
            trace_kinds = event_kinds(trace_path)
    run = result.inputs[0]
    behaviour = {
        "stdout": run.stdout,
        # Both runners raise on a non-zero exit, so baseline's code is 0.
        "exit_code": run.stats.exit_code if run.stats else 0,
        "sim_wall": run.wall_time,
        "sim_energy": run.energy_joules,
    }
    if run.stats is not None:
        profile = run.phase_profile
        behaviour["stats"] = run.stats.to_dict()
        behaviour["phases"] = {
            "cycles": profile.cycles,
            "stall_seconds": profile.stall_seconds,
            "total_cycles": profile.total_cycles,
        }
        behaviour["trace_kinds"] = trace_kinds
    blob = json.dumps(behaviour, sort_keys=True, default=repr)
    return {
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "sim_wall": repr(run.wall_time),
        "sim_energy": repr(run.energy_joules),
    }


def event_kinds(trace_path: str) -> List[str]:
    """The kinds of a Chrome trace's instant events, in emission order
    (segment spans and process-name metadata are derived, not events)."""
    with open(trace_path) as fh:
        trace = json.load(fh)
    return [event["name"] for event in trace["traceEvents"]
            if event["ph"] == "i"]


def compute_all() -> Dict[str, Dict[str, str]]:
    return {f"{name}/{mode}": fingerprint(name, mode)
            for name in BENCHMARKS for mode in MODES}


def load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write {GOLDEN.name} instead of comparing")
    args = parser.parse_args()
    os.environ.pop("REPRO_MEM_BUDGET", None)
    current = compute_all()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {len(current)} fingerprints to {GOLDEN}")
        return 0
    golden = load_golden()
    changed = sorted(key for key in golden.keys() | current.keys()
                     if golden.get(key) != current.get(key))
    for key in changed:
        print(f"{key}: golden {golden.get(key)} != current {current.get(key)}")
    print(f"{len(current) - len(changed)} of {len(current)} fingerprints "
          f"match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
