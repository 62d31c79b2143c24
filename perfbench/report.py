"""Turn the ledgers of a run into metric values and readable tables."""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional

from perfbench.catalogue import (
    CAMPAIGN_ONLY,
    END_TO_END,
    ENERGY_MODES,
    MODES,
    PAPER_ENERGY_PCT,
    PAPER_PERF_PCT,
    PER_LAYER,
    PROTECTED,
    STALL_CAUSES,
)
from perfbench.layers import LAYERS, Tracer
from perfbench.summary import column_table, fmt, geomean_overhead_pct, \
    percentile, samples_needed
from perfbench.workloads import Job, Ledger

#: Outcomes that count as a detection: the fault was caught (and maybe
#: survived).  Benign runs are excluded from the base, SDC runs are misses.
DETECTED_OUTCOMES = ("detected", "exception", "timeout", "recovered")


def host_seconds_by_mode(jobs: List[Job], ledger: Ledger) -> Dict[str, float]:
    """Per-mode host seconds of one pass: the sum over that mode's jobs of
    each job's median time, so the modes sum exactly to ``host_s``."""
    by_mode = {mode: 0.0 for mode in MODES}
    for job in jobs:
        samples = ledger.seconds.get(job.name)
        if samples:
            by_mode[job.mode] += median(samples)
    return by_mode


def _overheads(jobs: List[Job], ledger: Ledger, attribute: str,
               modes) -> Dict[str, float]:
    """Geomean simulated overhead per mode against baseline; 0.0 when a
    job of the mode never finished (the run is then marked incorrect)."""
    programs = list(dict.fromkeys(job.program for job in jobs))
    out = {}
    for mode in modes:
        ratios = []
        for program in programs:
            base = ledger.results.get(f"{program}/baseline")
            run = ledger.results.get(f"{program}/{mode}")
            if base is None or run is None:
                break
            ratios.append(getattr(run, attribute) / getattr(base, attribute))
        else:
            out[mode] = geomean_overhead_pct(ratios)
            continue
        out[mode] = 0.0
    return out


def campaign_outcomes(ledger: Ledger) -> List[str]:
    """Outcomes of one pass of the campaign arms (passes repeat exactly)."""
    return [o for result in ledger.results.values() for o in result.outcomes]


def detection_coverage(outcomes: List[str]) -> Optional[float]:
    """Detected, exception, timeout and recovered outcomes over fired
    non-benign injections; ``None`` when no injection was non-benign."""
    relevant = [o for o in outcomes if o != "benign"]
    if not relevant:
        return None
    return sum(o in DETECTED_OUTCOMES for o in relevant) / len(relevant)


def end_to_end(workload: str, jobs: List[Job], ledger: Ledger,
               setup: List[Dict[str, float]], rss_mb: float) -> Dict[str, float]:
    by_mode = host_seconds_by_mode(jobs, ledger)
    values: Dict[str, float] = {
        "setup_s": median([sum(s.values()) for s in setup]),
        "host_s": sum(by_mode.values()),
        **{f"host_s.{mode}": by_mode[mode] for mode in MODES},
        "host_rss_mb": rss_mb,
        "wall_s": median(ledger.wall_pass_seconds),
    }
    perf = _overheads(jobs, ledger, "sim_wall", PROTECTED)
    energy = _overheads(jobs, ledger, "sim_energy", ENERGY_MODES)
    values.update({f"sim_overhead_pct.{m}": perf[m] for m in PROTECTED})
    values.update({f"sim_energy_overhead_pct.{m}": energy[m]
                   for m in ENERGY_MODES})
    if workload == "campaign":
        injection_ms = [s * 1e3 for s in ledger.injection_s]
        values["injection_samples"] = len(injection_ms)
        for q in (50, 90):
            point = percentile(injection_ms, q / 100)
            if point is not None:
                values[f"injection_ms.p{q}"] = point
        coverage = detection_coverage(campaign_outcomes(ledger))
        if coverage is not None:
            values["detection_coverage"] = coverage
    return values


def render_end_to_end(workload: str, values: Dict[str, float],
                      attempted: int, failed: int) -> str:
    rows = []
    for name, unit in list(END_TO_END.items()) + list(CAMPAIGN_ONLY.items()):
        mode = name.rpartition(".")[2]
        paper = ""
        if name.startswith("sim_overhead_pct."):
            paper = fmt(PAPER_PERF_PCT.get(mode), 1)
        elif name.startswith("sim_energy_overhead_pct."):
            paper = fmt(PAPER_ENERGY_PCT.get(mode), 1)
        value = values.get(name)
        if value is not None:
            shown = fmt(value)
        elif name in CAMPAIGN_ONLY and workload != "campaign":
            shown = "n/a (no injections in this workload)"
        elif name.startswith("injection_ms."):
            q = int(name.rpartition("p")[2]) / 100
            shown = (f"n/a ({values.get('injection_samples', 0)} samples, "
                     f"needs {samples_needed(q)})")
        else:
            shown = "n/a"
        rows.append([name, shown, unit, paper])
    rows.append(["host_s as uncalibrated wall time",
                 fmt(values.get("wall_s")), "s", ""])
    samples = values.get("injection_samples")
    if samples is not None:
        rows.append(["injection samples", fmt(samples), "count", ""])
    rows.append(["failed_frac", fmt(failed / attempted if attempted else 0.0),
                 "fraction", ""])
    table = column_table(["metric", "value", "unit", "paper"], rows)
    return (f"== perfbench {workload}: end-to-end (untraced) ==\n{table}\n"
            f"failed {failed} of {attempted} attempted jobs and tasks.\n"
            "The suite is synthetic mini-C, not SPEC CPU2006: the gap between "
            "sim_* and the paper column is not a validated model error.")


def _simulated_counts(run_stats, passes: int) -> Dict[str, float]:
    """``simc.*``: deterministic simulated counts summed over the protected
    runs of the traced passes, per pass."""
    keys = {"simc.segments": "segments_checked",
            "simc.checkpoints": "checkpoint_count",
            "simc.bytes_recorded": "bytes_recorded",
            "simc.checker_migrations": "checker_migrations",
            "simc.rollbacks": "recovery_rollbacks",
            "simc.forward_recoveries": "tmr_forward_recoveries"}
    out = {name: 0.0 for name in keys}
    out["simc.bytes_hashed"] = 0.0
    out.update({f"simc.stall_s.{cause}": 0.0 for cause in STALL_CAUSES})
    for stats in run_stats:
        for name, attribute in keys.items():
            out[name] += float(getattr(stats, attribute, 0))
        for metric in getattr(getattr(stats, "metrics", None), "__iter__",
                              lambda: iter(()))():
            if getattr(metric, "name", None) == "comparator.bytes_hashed":
                out["simc.bytes_hashed"] += float(getattr(metric, "sum", 0))
        stalls = getattr(getattr(stats, "phase_profile", None),
                         "stall_seconds", {}) or {}
        for phase, seconds in stalls.items():
            cause = phase[:-len("_stall")] if phase.endswith("_stall") \
                else phase
            if cause in STALL_CAUSES:
                out[f"simc.stall_s.{cause}"] += seconds
    return {name: value / passes for name, value in out.items()}


def per_layer(plain: Ledger, traced: Ledger, tracer: Tracer,
              setup: List[Dict[str, float]]) -> Dict[str, float]:
    passes = max(1, len(traced.pass_seconds))
    # Layer times are wall nanoseconds; one factor per run calibrates them
    # like the pass times (probe handler time is spread pro rata).  When
    # every traced job failed there is no pass time to calibrate against.
    wall = sum(traced.wall_pass_seconds)
    scale = (sum(traced.pass_seconds) / wall if wall else 1.0) / 1e9
    values: Dict[str, float] = {}
    for name in LAYERS:
        layer = tracer.layers[name]
        values[f"{name}.calls"] = layer.calls / passes
        values[f"{name}.busy_s"] = layer.busy_ns * scale / passes
        values[f"{name}.self_s"] = layer.self_ns * scale / passes

    def total(layer: str, key: str) -> float:
        return tracer.seam_total(layer, key) / passes

    instructions = total("cpu", "instructions")
    for name, (layer, key) in {
            "mem.loads": ("mem", "loads"), "mem.stores": ("mem", "stores"),
            "hashing.bytes": ("hashing", "bytes"),
            "comparator.compares": ("comparator", "compares"),
            "comparator.votes": ("comparator", "votes"),
            "kernel.forks": ("kernel", "forks"),
            "kernel.syscalls": ("kernel", "syscalls"),
            "kernel.rollbacks": ("kernel", "rollbacks"),
            "kernel.promotions": ("kernel", "promotions"),
            "sched.submits": ("sched", "submits"),
            "faults.fired": ("faults", "fired")}.items():
        values[name] = total(layer, key)
    busy = values["cpu.busy_s"]
    values["cpu.kips"] = instructions / 1e3 / busy if busy else 0.0
    hashing_self = values["hashing.self_s"]
    values["hashing.mb_per_s"] = (values["hashing.bytes"] / 1e6 / hashing_self
                                  if hashing_self else 0.0)
    attempts = values["faults.calls"]
    values["faults.fired_per_attempt"] = (values["faults.fired"] / attempts
                                          if attempts else 0.0)

    outcomes = campaign_outcomes(plain)
    values["faults.sdc_frac"] = (outcomes.count("sdc") / len(outcomes)
                                 if outcomes else 0.0)
    values["faults.detection_coverage"] = detection_coverage(outcomes) or 0.0
    injection_ms = [s * 1e3 for s in plain.injection_s]
    values["faults.injection_samples"] = len(injection_ms)
    for q in (50, 90):
        values[f"faults.injection_ms.p{q}"] = percentile(
            injection_ms, q / 100) or 0.0

    for part in ("import_s", "build_s", "compile_s"):
        values[f"setup.{part}"] = median([s[part] for s in setup])

    values["simc.instructions"] = instructions
    values.update(_simulated_counts(tracer.run_stats, passes))

    untraced = median(plain.pass_seconds)
    traced_host = median(traced.pass_seconds)
    values["host_us_per_kinstr"] = (untraced * 1e6 / (instructions / 1e3)
                                    if instructions else 0.0)
    values["tracing.untraced_host_s"] = untraced
    values["tracing.traced_host_s"] = traced_host
    values["tracing.overhead_s"] = traced_host - untraced
    values["tracing.overhead_pct"] = ((traced_host / untraced - 1.0) * 100.0
                                      if untraced else 0.0)
    values["tracing.unattributed_s"] = (
        sum(traced.pass_seconds) / passes
        - sum(values[f"{name}.self_s"] for name in LAYERS))
    values["tracing.layers_absent"] = len(tracer.absent_layers())
    return {name: values[name] for name in PER_LAYER}


def render_layers(values: Dict[str, float], tracer: Tracer) -> str:
    absent = set(tracer.absent_layers())
    host = (values["tracing.unattributed_s"]
            + sum(values[f"{name}.self_s"] for name in LAYERS))
    rows = []
    for name in LAYERS:
        if name in absent:
            rows.append([name, "absent", "", "", ""])
            continue
        self_s = values[f"{name}.self_s"]
        rows.append([name, fmt(values[f"{name}.calls"], 1),
                     fmt(values[f"{name}.busy_s"]), fmt(self_s),
                     f"{100 * self_s / host:.1f}%" if host else "n/a"])
    rows.append(["unattributed", "", "", fmt(values["tracing.unattributed_s"]),
                 f"{100 * values['tracing.unattributed_s'] / host:.1f}%"
                 if host else "n/a"])
    table = column_table(["layer", "calls/pass", "busy_s", "self_s",
                          "share"], rows)
    table_columns = {f"{layer}.{col}" for layer in LAYERS
                     for col in ("calls", "busy_s", "self_s")}
    samples = int(values["faults.injection_samples"])
    extras = []
    for name, unit in PER_LAYER.items():
        if name in table_columns:
            continue
        shown = f"{fmt(values[name])} {unit}"
        if name.startswith("faults.injection_ms."):
            q = int(name.rpartition("p")[2]) / 100
            if samples < samples_needed(q):
                # The JSON carries 0 for a percentile that is not
                # reportable; the table says why.
                shown = f"n/a ({samples} samples, needs {samples_needed(q)})"
        extras.append(f"{name} = {shown}")
    return ("== per layer (traced passes, per pass; faults.calls = "
            "injection attempts) ==\n" + table + "\n"
            + "\n".join(extras) + "\n"
            f"tracing overhead: {fmt(values['tracing.overhead_s'])} s per pass "
            f"({fmt(values['tracing.overhead_pct'], 1)} %), traced minus "
            "untraced host time")
