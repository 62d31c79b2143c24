"""Metric names and units, the modes and the paper's reference values.

``BENCHMARK.json`` at the checkout root owns the metric list:
``END_TO_END`` (its ``end_to_end`` entries) is what the ``--trace 0`` run
puts in its JSON result and ``PER_LAYER`` (its ``per_layer`` entries) what
the ``--trace 1`` run puts there.  ``CAMPAIGN_ONLY`` metrics exist on the
campaign workload alone, so they are printed in the end-to-end table
(marked n/a elsewhere) and carried in the JSON as per-layer ``faults.*``
metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

MODES: Tuple[str, ...] = ("baseline", "parallaft", "raft", "tmr")
PROTECTED: Tuple[str, ...] = MODES[1:]
ENERGY_MODES: Tuple[str, ...] = ("parallaft", "raft")

#: The paper's geomean overheads (§5, Apple M2, SPEC CPU2006); TMR is not
#: in the paper.
PAPER_PERF_PCT: Dict[str, float] = {"parallaft": 15.9, "raft": 16.2}
PAPER_ENERGY_PCT: Dict[str, float] = {"parallaft": 44.3, "raft": 87.8}

CAMPAIGN_ONLY: Dict[str, str] = {
    "injection_ms.p50": "ms",
    "injection_ms.p90": "ms",
    "detection_coverage": "fraction",
}

STALL_CAUSES: Tuple[str, ...] = ("containment", "pressure", "cap", "checker")

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

END_TO_END: Dict[str, str] = {m["name"]: m["unit"]
                              for m in _SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"]
                             for m in _SPEC["per_layer"]}
