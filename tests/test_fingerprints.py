"""Behaviour fingerprints: every benchmark x mode behaves as committed.

``tests/golden/fingerprints.json`` holds one digest per benchmark x
detection mode (see ``scripts/fingerprints.py``).  Host-speed work must
never move a simulated result, so any difference here is a regression
unless the golden file was regenerated on purpose.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "fingerprints", os.path.join(ROOT, "scripts", "fingerprints.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprints_match_golden(monkeypatch):
    fingerprints = _load_script()
    monkeypatch.delenv("REPRO_MEM_BUDGET", raising=False)
    golden = fingerprints.load_golden()
    assert sorted(golden) == sorted(
        f"{name}/{mode}" for name in fingerprints.BENCHMARKS
        for mode in fingerprints.MODES)
    current = fingerprints.compute_all()
    changed = {key: (golden[key], current[key]) for key in golden
               if golden[key] != current[key]}
    assert not changed, f"behaviour moved: {changed}"
