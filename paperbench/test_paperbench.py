"""The benchmark's own tests: the slices are the sweep's cells, tracing only
observes, self times account for the traced wall, and the digest check
has teeth.  Run from the repository root::

    python3 -m pytest paperbench -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import run  # noqa: E402
from layers import ENTRY_POINTS, LayerTracer  # noqa: E402
from repro.config import ProtocolKind  # noqa: E402
from repro.harness import sweep  # noqa: E402

#: Small cells (8 cores, one chunk per partition) covering every protocol
#: handler family and the 1-processor baseline, so the tests stay fast.
SMALL = [(sweep.key_of("Canneal", 8, p, 8), ("Canneal", 8, p, 1, None, 8,
                                              False, False))
         for p in ("ScalableBulk", "TCC", "SEQ", "BulkSC")]
SMALL.append((sweep.key_of("Radix", 8, "baseline1p", 1),
              ("Radix", 8, "ScalableBulk", 1, 1, 8, False, False)))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_slice_is_the_serial_sweeps_cells(workload, monkeypatch):
    """The benchmark runs exactly the cells a serial sweep of its
    application runs, in the same order and with the same arguments."""
    app = run.WORKLOADS[workload]
    calls = []

    def fake_run_one(app, n_cores, protocol, chunks, active_cores=None,
                     n_partitions=None, **_):
        calls.append((app, n_cores, protocol.value, chunks, active_cores,
                      n_partitions))
        return {"total_cycles": 0, "wall_seconds": 0.0}

    monkeypatch.setattr(sweep, "run_one", fake_run_one)
    sweep.collect([app], list(cells.CORE_COUNTS), cells.CHUNKS,
                  log=lambda *_: None)
    slice_cells = cells.slice_cells(app)
    assert slice_cells == sweep._matrix([app], [32, 64], cells.CHUNKS, False)
    assert [task[:6] for _, task in slice_cells] == calls
    assert len(calls) == 9 and {c[5] for c in calls} == {64}


def test_cell_record_is_run_ones():
    key, task = SMALL[0]
    app, n, proto, chunks, active, parts, _, _ = task
    cell = cells.run_cell(key, task, cells.DEFAULT_SEED)
    record = sweep.run_one(app, n, ProtocolKind(proto), chunks,
                           active_cores=active, n_partitions=parts)
    for name in ("wall_seconds", "wall_seconds_raw"):  # host time, not simulated
        record.pop(name)
    assert cell.error is None and cell.record == record


def test_tracing_only_observes():
    plain = [cells.run_cell(k, t, cells.DEFAULT_SEED) for k, t in SMALL]
    originals = [owner.__dict__[attr] for owner, attr, _, _ in ENTRY_POINTS]
    with LayerTracer() as tracer:
        traced = [cells.run_cell(k, t, cells.DEFAULT_SEED, tracer)
                  for k, t in SMALL]
    assert [c.digest for c in traced] == [c.digest for c in plain]
    assert all(c.error is None for c in traced)
    assert originals == [owner.__dict__[attr]
                         for owner, attr, _, _ in ENTRY_POINTS]
    assert tracer._on_gc not in gc.callbacks
    _, calls = tracer.by_layer()
    for layer in ("engine", "network", "core", "baselines", "cst",
                  "signatures", "memory", "cpu", "workloads", "runner", "gc"):
        assert calls.get(layer, 0) > 0, layer


def test_self_times_sum_to_traced_wall():
    with LayerTracer() as tracer:
        t0 = cells.clock()
        for key, task in SMALL:
            cells.run_cell(key, task, cells.DEFAULT_SEED, tracer)
        wall = cells.clock() - t0
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.cell_seconds(), rel=1e-9)
    assert abs(total - wall) <= 0.01 * wall


def test_perturbed_digest_fails_the_check():
    key, task = SMALL[1]
    seed = cells.DEFAULT_SEED
    cell = cells.run_cell(key, task, seed)
    expected = {"w": {str(seed): {key: {"digest": cell.digest,
                                        "record": dict(cell.record)}}}}
    assert run.check_cells("w", seed, [cell], expected, print) == 0

    ref = expected["w"][str(seed)][key]
    ref["digest"] = "0" * 64
    ref["record"]["total_cycles"] += 1
    log = []
    assert run.check_cells("w", seed, [cell], expected, log.append) == 1
    assert "total_cycles" in cell.error and log


def test_other_seeds_check_invariants_only():
    key, task = SMALL[1]
    cell = cells.run_cell(key, task, cells.HELD_OUT_SEED)
    expected = {"w": {str(cells.DEFAULT_SEED): {key: {"digest": "x",
                                                      "record": {}}}}}
    assert run.check_cells("w", cells.HELD_OUT_SEED, [cell], expected,
                           print) == 0


def test_expected_digests_cover_exactly_the_default_seeds_slices():
    expected = run.load_expected()
    assert expected["seed"] == cells.DEFAULT_SEED
    assert expected["chunks"] == cells.CHUNKS
    keys = lambda app: sorted(key for key, _ in cells.slice_cells(app))
    for workload, app in run.WORKLOADS.items():
        seeds = cells.slice_seeds(cells.DEFAULT_SEED, run.SLICES[workload])
        assert sorted(expected[workload]) == sorted(map(str, seeds))
        assert all(sorted(refs) == keys(app)
                   for refs in expected[workload].values())


@pytest.mark.parametrize("seconds", [0.0, 1e6])
def test_timed_run_inputs_do_not_depend_on_seconds(seconds, monkeypatch,
                                                   capsys):
    """The slices a timed run measures are fixed per workload; the time
    budget never chooses them.  Host seconds are scaled by the gauge."""
    ran = []

    def fake_run_slice(app, seed, tracer=None, gauge=None):
        ran.append((app, seed))
        return [cells.CellRun(key, "baseline1p" if task[4] == 1 else task[2],
                              wall_s=1.0, setup_s=0.5, simulate_s=0.5)
                for key, task in cells.slice_cells(app)]

    def slow_host(gauge):  # the host at half the reference speed
        gauge.samples.append(2 * cells.HostSpeed.REFERENCE_S)

    monkeypatch.setattr(cells, "run_slice", fake_run_slice)
    monkeypatch.setattr(cells.HostSpeed, "sample", slow_host)
    for workload, app in run.WORKLOADS.items():
        ran.clear()
        assert run.run_timed(workload, cells.HELD_OUT_SEED, seconds) == 0
        assert ran == [(app, s) for s in cells.slice_seeds(
            cells.HELD_OUT_SEED, run.SLICES[workload])]
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["metrics"]["wall_s"]["value"] == 9.0 * 0.5
    assert line["attempted"] == 9 * run.SLICES[workload]


def test_host_speed_gauge_stays_out_of_the_collector():
    gauge = cells.HostSpeed()
    gauge.sample()
    gc.collect()
    assert gauge.samples[0] > 0
    assert not any(gc.is_tracked(node) for node in gauge.nodes)


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "contended", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
