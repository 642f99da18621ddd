"""One application's slice of the paper sweep, run cell by cell with
per-phase host timing and a digest of every cell's simulated statistics.

A slice is exactly the cells ``repro.harness.sweep._matrix([app], [32, 64],
CHUNKS)`` yields: the 1-processor ScalableBulk baseline on the 64-core
machine, then ScalableBulk, TCC, SEQ and BulkSC at 32 and at 64 cores, all
with ``n_partitions=64`` and prewarmed caches.  The phases are timed from
outside the program, around the same public calls ``Machine.run`` makes.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import ProtocolKind, SystemConfig
from repro.harness import sweep
from repro.harness.runner import DEFAULT_EVENT_GUARD, Machine, SimulationRunner
from repro.provenance import config_hash

#: Chunks per partition.  ``results/`` uses 3; at 3 one Radix slice takes
#: about 45 s on a 2-CPU host, too long to repeat within one run.  At 2 the
#: BulkSC arbiter serialization is still about half of Radix's wall time.
CHUNKS = 2

CORE_COUNTS = (32, 64)

#: The seed whose digests ``expected.json`` holds (``SystemConfig().seed``).
DEFAULT_SEED = SystemConfig().seed

#: A seed kept out of every expected digest: on it only the invariants are
#: checked, and the digests are reported unchecked.
HELD_OUT_SEED = 2011

#: Slice ``i`` of a timed run on seed ``s`` runs on seed
#: ``s + i * SEED_STRIDE``.  Slice 0 runs on ``s`` itself, so the default
#: seed's first slice is the sweep's own.
SEED_STRIDE = 1_000_003

clock = time.perf_counter


def slice_seeds(seed: int, n: int) -> List[int]:
    return [seed + i * SEED_STRIDE for i in range(n)]


def slice_cells(app: str) -> List[tuple]:
    """The sweep's own (key, task) cells for one application."""
    return sweep._matrix([app], list(CORE_COUNTS), CHUNKS, False)


@dataclass
class CellRun:
    """One cell's outcome: phase timings, simulated record and counters."""

    key: str
    protocol: str                   #: protocol value, or "baseline1p"
    wall_s: float = 0.0
    setup_s: float = 0.0
    simulate_s: float = 0.0
    gc_s: float = 0.0
    record: Optional[dict] = None
    digest: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


def record_of(result, config: SystemConfig, stats) -> dict:
    """The ``run_one`` record without its wall-clock fields."""
    return {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "app": result.app,
        "protocol": result.protocol.value,
        "n_cores": result.n_cores,
        "active_cores": result.active_cores,
        "total_cycles": result.total_cycles,
        "useful": result.useful_cycles,
        "miss": result.miss_stall_cycles,
        "commit": result.commit_stall_cycles,
        "squash": result.squash_cycles,
        "chunks_committed": result.chunks_committed,
        "squashes_conflict": result.squashes_conflict,
        "squashes_alias": result.squashes_alias,
        "mean_commit_latency": result.mean_commit_latency,
        "mean_dirs": result.mean_dirs_per_commit,
        "mean_write_dirs": result.mean_write_dirs_per_commit,
        "bottleneck_ratio": result.bottleneck_ratio,
        "mean_queue": result.mean_queue_length,
        "traffic": result.traffic_by_class,
        "dirs_hist": {str(k): v for k, v in
                      stats.dirs_per_commit_hist.counts().items()},
        "latency_hist": {str(k): v for k, v in
                         stats.commit_latency_hist.counts().items()},
    }


def digest_of(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class FullCollections:
    """A ``gc.callbacks`` hook: host seconds and number of full
    (generation-2) cyclic collections while it is installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] == 2:
            if phase == "start":
                self._start = clock()
            else:
                self.seconds += clock() - self._start
                self.count += 1


def run_cell(key: str, task: tuple, seed: int, tracer=None) -> CellRun:
    """Run one cell as the sweep does, timing each phase.

    Nothing is collected between cells, as in a serial sweep: each
    ``Machine`` is a reference cycle, so its garbage waits for a full
    collection that some later phase's allocations trigger.  A full
    collection scans the whole heap, earlier cells' machines included, so
    which phase it lands in is an accident of allocation counts: its time
    counts in the cell's ``wall_s`` and ``gc_s`` and in no phase.

    Any exception, unfinished core or event-guard hit makes the cell
    failed (``error`` set); the caller decides what else counts as one.
    """
    app, n_cores, proto_value, chunks, active, n_partitions, _, _ = task
    cell = CellRun(key, "baseline1p" if active == 1 else proto_value)
    config = SystemConfig(n_cores=n_cores, protocol=ProtocolKind(proto_value),
                          seed=seed)
    if tracer is not None:
        tracer.open_cell(key)
    full = FullCollections()
    gc.callbacks.append(full)
    t0 = clock()
    try:
        runner = SimulationRunner(app, config, active_cores=active,
                                  chunks_per_partition=chunks,
                                  n_partitions=n_partitions)
        t1, g1 = clock(), full.seconds
        machine = Machine(config, workload=runner.workload)
        t2 = clock()
        lines = machine.prewarm()
        t3, g3 = clock(), full.seconds
        for core in machine.cores:
            core.start()
        machine.sim.run(max_events=DEFAULT_EVENT_GUARD)
        t4, g4 = clock(), full.seconds
        unfinished = [c.core_id for c in machine.cores if not c.finished]
        if unfinished:
            raise RuntimeError(f"unfinished cores {unfinished} at cycle "
                               f"{machine.sim.now}")
        result = machine.result(app, runner.active_cores)
        t5 = clock()
    except Exception as exc:  # a failed cell is reported, not fatal
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell
    finally:
        gc.callbacks.remove(full)
        if tracer is not None:
            tracer.close_cell()
    if tracer is not None:
        tracer.phases((("workload", t0, t1),
                       ("build", t1, t2), ("prewarm", t2, t3),
                       ("simulate", t3, t4), ("result", t4, t5)))
    cell.wall_s = t5 - t0
    cell.setup_s = (t3 - t1) - (g3 - g1)
    cell.simulate_s = (t4 - t3) - (g4 - g3)
    cell.gc_s = full.seconds
    stats = machine.protocol.stats
    cell.record = record_of(result, config, stats)
    cell.digest = digest_of(cell.record)
    workload = runner.workload
    net = machine.network.stats
    cell.counts = {
        "prewarm_lines": lines,
        "chunks": workload.total_chunks - sum(
            workload.remaining(c) for c in range(n_cores)),
        "events": machine.sim.events_processed,
        "messages": net.total_messages,
        "latency_cycles": net.total_latency,
        "read_nacks": result.read_nacks,
        "commit_failures": stats.commit_failures,
        "full_collections": full.count,
    }
    if result.chunks_committed < n_partitions * chunks:
        cell.error = (f"committed {result.chunks_committed} of "
                      f"{n_partitions * chunks} chunks")
    return cell


class HostSpeed:
    """A gauge of the host's speed: a fixed pure-Python loop, timed between
    cells.

    The shared host this benchmark was built on slows and speeds up by up
    to 2x over minutes, and every phase of a run moves with it.  The loop
    resembles the simulator's own work (pointer chasing through a heap of
    small objects, dict updates, a bounded heap queue), and its time was
    measured to move with the simulator's time per event (README.md,
    "Host-speed scaling").  ``factor()`` scales a run's host seconds to a host on
    which one sample takes ``REFERENCE_S``.  The loop never calls into
    ``repro``, so a change to the program moves the scaled seconds as much
    as the raw ones.
    """

    #: Seconds one sample takes on the reference host; a fixed scale.
    REFERENCE_S = 0.2
    NODES = 1 << 16
    STEPS = 100_000

    def __init__(self) -> None:
        # tuples of ints, which the collector stops tracking, so the gauge
        # adds next to nothing to the full collections it runs between
        n = self.NODES
        self.nodes = [((i * 40503) % 977, (i * 7919 + 13) % n)
                      for i in range(n)]
        self.samples: List[float] = []

    def sample(self) -> None:
        nodes, heap, table = self.nodes, [], {}
        node = 0
        t0 = clock()
        for step in range(self.STEPS):
            weight, node = nodes[node]
            key = node & 0x3FFF
            table[key] = table.get(key, 0) + weight
            heapq.heappush(heap, (weight, step))
            if len(heap) > 512:
                heapq.heappop(heap)
        self.samples.append(clock() - t0)

    def factor(self) -> float:
        """Reference speed over this run's speed (median sample)."""
        return self.REFERENCE_S / statistics.median(self.samples)


def run_slice(app: str, seed: int, tracer=None,
              gauge: Optional[HostSpeed] = None) -> List[CellRun]:
    """Run the slice's cells in order; ``gauge`` samples before each."""
    out = []
    for key, task in slice_cells(app):
        if gauge is not None:
            gauge.sample()
        out.append(run_cell(key, task, seed, tracer))
    return out

