"""Small statistics and table helpers used by the benchmark report.

Nothing here imports ``repro``: the helpers are plain functions over lists
of numbers so the benchmark's own tests can check them without a run.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; otherwise it is marked as not reportable.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``, or
    ``None`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples rank
    above it.

    With ``n`` samples the nearest rank is ``ceil(q * n)``; the samples
    beyond it number ``n - rank``.  So the median needs 20 samples and
    p90 needs 100.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(values)[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def geomean_overhead_pct(ratios: Iterable[float]) -> float:
    """Paper-style geometric-mean overhead: the geomean of per-program
    ``protected / baseline`` ratios, minus one, in percent."""
    ratios = list(ratios)
    if not ratios:
        raise ValueError("geomean of no ratios")
    log_sum = sum(math.log(r) for r in ratios)
    return (math.exp(log_sum / len(ratios)) - 1.0) * 100.0


def fmt(value: Optional[float], digits: int = 4) -> str:
    """Fixed-width rendering for the human-readable tables."""
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.{digits}f}"


def column_table(header: List[str], rows: List[List[str]]) -> str:
    """Left-aligned first column, right-aligned numeric columns."""
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
