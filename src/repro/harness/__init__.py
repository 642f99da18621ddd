"""Experiment harness: machine assembly, run results, figure regeneration.

* :mod:`repro.harness.runner` — builds a full machine (cores, caches,
  NoC, directories, protocol engines) and runs one workload to completion.
* ``python -m repro.harness.sweep`` — runs the experiment matrix (one
  record per run) and writes the records and EXPERIMENTS.md's tables.
* :mod:`repro.harness.figures` — pure functions from sweep records to
  each paper figure's data, and the markdown renderer built on them.
"""

from repro.harness.runner import Machine, RunResult, SimulationRunner, run_app

__all__ = ["Machine", "RunResult", "SimulationRunner", "run_app"]
