"""Tests of the benchmark itself: metric names, the host-time split, the
tracer's self-time accounting, the percentile rule and the correctness
gate.  Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

import re
import time
from pathlib import Path

import pytest

from perfbench import layers, report, summary
from perfbench.probe import REFERENCE_S, SpeedProbe
from perfbench.catalogue import CAMPAIGN_ONLY, END_TO_END, MODES, PER_LAYER
from perfbench.workloads import Gate, Job, JobResult, Ledger, build_jobs, \
    run_pass

ROOT = Path(__file__).resolve().parents[2]

#: The benchmark contract's alphabet for metric names.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


# -- metric names ------------------------------------------------------------

def test_metric_names_use_the_contract_alphabet():
    names = list(END_TO_END) + list(PER_LAYER) + list(CAMPAIGN_ONLY)
    assert all(valid_metric_name(n) for n in names)
    assert len(set(names)) == len(names)
    assert not valid_metric_name("host s")
    assert not valid_metric_name(".hidden")


# -- host-time split ---------------------------------------------------------

def _fake_job(name, mode):
    return Job(name, name.split("/")[0], mode, lambda: None)


def test_per_mode_host_seconds_sum_to_host_s():
    jobs = [_fake_job(f"p{i}/{mode}", mode)
            for i in range(3) for mode in MODES]
    ledger = Ledger(wall_pass_seconds=[1.0])
    for n, job in enumerate(jobs):
        ledger.seconds[job.name] = [0.1 * n, 0.3 + 0.01 * n, 0.2]
        ledger.results[job.name] = JobResult("x", sim_wall=1.0 + n,
                                             sim_energy=2.0 + n)
    values = report.end_to_end("compute", jobs, ledger,
                               [{"import_s": 0.1, "build_s": 0.0,
                                 "compile_s": 0.01}], 10.0)
    parts = sum(values[f"host_s.{mode}"] for mode in MODES)
    assert parts == pytest.approx(values["host_s"], rel=1e-12)
    assert set(END_TO_END) <= set(values)


def test_a_run_whose_jobs_all_failed_still_reports_every_metric():
    """The gate's failure path: no job finished, so every pass time is 0;
    the report must still produce each listed metric, not divide by 0."""
    jobs = [_fake_job(f"p/{mode}", mode) for mode in MODES]
    plain = Ledger(pass_seconds=[0.0], wall_pass_seconds=[0.0])
    traced = Ledger(pass_seconds=[0.0], wall_pass_seconds=[0.0])
    setup = [{"import_s": 0.1, "build_s": 0.0, "compile_s": 0.01}]
    values = report.end_to_end("compute", jobs, plain, setup, 10.0)
    assert set(END_TO_END) <= set(values)
    tracer = layers.Tracer()
    layer_values = report.per_layer(plain, traced, tracer, setup)
    assert set(layer_values) == set(PER_LAYER)
    assert "tracing overhead" in report.render_layers(layer_values, tracer)


# -- tracer ------------------------------------------------------------------

class _Toy:
    def outer(self, n):
        time.sleep(0.001)
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        time.sleep(0.0005)
        return i

    def recurse(self, depth):
        return 0 if depth == 0 else 1 + self.recurse(depth - 1)


_SEAMS = (
    layers.Seam("outer", f"{__name__}:_Toy.outer", "calls"),
    layers.Seam("inner", f"{__name__}:_Toy.inner", "calls"),
    layers.Seam("outer", f"{__name__}:_Toy.recurse", "recursions"),
    layers.Seam("gone", f"{__name__}:_Toy.renamed_away", "calls"),
    layers.Seam("gone", "no_such_module_anywhere:thing", "calls"),
)


def test_self_time_is_never_negative_and_nests():
    toy = _Toy()
    with layers.Tracer(_SEAMS, run_stats_seam=None) as tracer:
        start = time.perf_counter_ns()
        toy.outer(5)
        toy.recurse(20)
        wall = time.perf_counter_ns() - start
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert outer.calls == 1 + 21 and inner.calls == 5
    for layer in (outer, inner):
        assert layer.self_ns >= 0 and layer.busy_ns >= layer.self_ns
    # Nested time is taken out of the parent's self time exactly once.
    assert outer.self_ns + inner.self_ns <= outer.busy_ns <= wall
    assert inner.self_ns == inner.busy_ns
    # Wrappers are gone after the block.
    assert "traced" not in _Toy.outer.__qualname__


def test_missing_seams_are_reported_absent_not_raised():
    with layers.Tracer(_SEAMS, run_stats_seam=None) as tracer:
        _Toy().inner(1)
    assert tracer.absent_layers() == []  # "gone" is not a LAYERS entry
    assert not tracer.layers["gone"].present
    assert tracer.layers["gone"].calls == 0


def test_program_layers_resolve_and_absent_seams_are_tolerated(monkeypatch):
    from repro.hashing import xxh3
    monkeypatch.delattr(xxh3.Xxh3_64, "update")
    with layers.Tracer() as tracer:
        pass
    assert tracer.absent_layers() == ["hashing"]
    # Every other seam of the current program exists.
    assert all(tracer.layers[name].present
               for name in layers.LAYERS if name != "hashing")


# -- speed probe -------------------------------------------------------------

def test_calibration_cancels_a_uniform_slowdown_and_drops_probe_time():
    probe = SpeedProbe()
    assert probe.calibrated(1.0, 3.0) == 2.0       # no probes: wall time
    probe.ends = [1.0 + 0.1 * i for i in range(1, 20)]
    probe.durations = [REFERENCE_S] * 19
    quiet = probe.calibrated(1.0, 3.0)
    assert quiet == pytest.approx(2.0 - 19 * REFERENCE_S)
    probe.durations = [2 * REFERENCE_S] * 19       # everything twice as slow
    assert probe.calibrated(1.0, 3.0) == pytest.approx(
        (2.0 - 19 * 2 * REFERENCE_S) / 2)


def test_probe_timer_fires_and_is_removed():
    import signal
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.durations) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- percentile sample-count rule -------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert summary.samples_needed(0.5) == 20
    assert summary.samples_needed(0.9) == 100
    assert summary.percentile(list(range(19)), 0.5) is None
    assert summary.percentile(list(range(1, 21)), 0.5) == 10
    assert summary.percentile(list(range(99)), 0.9) is None
    assert summary.percentile(list(range(1, 101)), 0.9) == 90


def test_unreportable_percentile_is_marked_with_its_sample_count():
    text = report.render_end_to_end(
        "campaign", {"injection_samples": 54, "injection_ms.p50": 70.0},
        attempted=10, failed=0)
    assert "n/a (54 samples, needs 100)" in text
    compute = report.render_end_to_end("compute", {}, attempted=1, failed=0)
    assert "n/a (no injections in this workload)" in compute


def test_detection_coverage_counts_sdc_as_a_miss_and_skips_benign():
    outcomes = ["detected", "recovered", "sdc", "benign", "timeout"]
    assert report.detection_coverage(outcomes) == pytest.approx(3 / 4)
    assert report.detection_coverage(["benign"]) is None


# -- correctness gate --------------------------------------------------------

def _result(stdout, fingerprint="f", detected=False):
    return JobResult(fingerprint, sim_wall=1.0, sim_energy=1.0,
                     outputs=[(stdout, 0)], detected=detected)


def test_gate_rejects_a_planted_stdout_mismatch():
    gate = Gate()
    base = Job("p/baseline", "p", "baseline", lambda: None)
    prot = Job("p/parallaft", "p", "parallaft", lambda: None)
    assert gate.check(base, _result("42\n")) == []
    assert gate.check(prot, _result("42\n")) == []
    assert gate.check(prot, _result("43\n", fingerprint="g"))
    assert gate.check(prot, _result("42\n", detected=True))


def test_a_violation_fails_the_pass_and_counts_in_failed():
    outputs = iter(["1\n", "2\n"])
    jobs = [Job("p/baseline", "p", "baseline",
                lambda: _result(next(outputs))),
            Job("p/parallaft", "p", "parallaft",
                lambda: _result(next(outputs)))]
    ledger = Ledger()
    run_pass(jobs, Gate(), ledger, SpeedProbe())
    assert ledger.attempted == 2 and ledger.failed == 1
    assert "differs from the baseline" in ledger.problems[0]


def test_gate_on_real_runs_catches_a_planted_mismatch(tmp_path, monkeypatch):
    """End to end through ``run_protected``: corrupting the protected run's
    stdout must fail the gate."""
    jobs = build_jobs("campaign", 0, tmp_path)[:2]   # bzip2 baseline, parallaft
    gate, ledger = Gate(), Ledger()
    run_pass(jobs, gate, ledger, SpeedProbe())
    assert ledger.failed == 0, ledger.problems

    from repro.harness import runner
    real = runner.run_protected

    def planted(*args, **kwargs):
        result = real(*args, **kwargs)
        result.inputs[0].stats.stdout += "x"
        return result

    monkeypatch.setattr(runner, "run_protected", planted)
    jobs = build_jobs("campaign", 0, tmp_path)[:2]
    run_pass(jobs, gate, ledger, SpeedProbe())
    assert ledger.failed == 1
    assert any("differs from the baseline" in p for p in ledger.problems)


def test_uncapturable_baseline_stdout_is_its_own_problem(tmp_path,
                                                        monkeypatch):
    """A harness change that stops ``run_baseline`` from making one kernel
    per input is reported as such, not as a program mismatch."""
    from repro.harness import runner
    monkeypatch.setattr(runner, "run_baseline",
                        lambda bench, seed_base: None)
    ledger = Ledger()
    run_pass(build_jobs("campaign", 0, tmp_path)[:1], Gate(), ledger,
             SpeedProbe())
    assert ledger.failed == 1
    assert "baseline stdout not capturable" in ledger.problems[0]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
