"""The repository benchmark: host speed and simulated fidelity, per workload.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (``compute``, ``memheavy`` or ``campaign``) from the root
of a checkout.  ``BENCHMARK.json`` at the root lists the metrics it prints.

Modules:

* :mod:`perfbench.workloads` — the jobs of each workload, the closed
  measurement loop and the correctness gate;
* :mod:`perfbench.layers` — the outside-in tracer that wraps public
  functions of each layer for the ``--trace 1`` run;
* :mod:`perfbench.probe` — the machine-speed probe that turns wall time
  into calibrated host seconds;
* :mod:`perfbench.catalogue` — the metric names and units listed in
  ``BENCHMARK.json``, the modes and the paper's reference values;
* :mod:`perfbench.report` — metric values and the readable tables;
* :mod:`perfbench.summary` — the percentile sample-count rule, geomeans
  and table formatting;
* :mod:`perfbench.setup_probe` — one cold set-up measurement, run in a
  fresh interpreter.
"""
