"""Full experiment sweep: every table and figure, all 18 applications.

Runs each (application, core count, protocol) combination once — plus the
single-processor ScalableBulk baselines — extracts everything the paper's
figures need into one record per run, caches the records as JSON (so
interrupted sweeps resume), and renders them to EXPERIMENTS.md-ready
markdown through :mod:`repro.harness.figures`.

Usage::

    python -m repro.harness.sweep --cores 32 64 --chunks 3 \
        --json results/sweep.json --markdown results/experiments.md
    python -m repro.harness.sweep --quick     # 16-core smoke sweep
    python -m repro.harness.sweep --quick --jobs 4   # process-pool fan-out

``--jobs N`` fans the matrix out over N worker processes
(:mod:`repro.harness.parallel`); results merge into the JSON cache in the
same deterministic order as a serial sweep, so the cache contents are
identical modulo per-run wall-clock fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import ProtocolKind, SystemConfig
from repro.harness.parallel import resolve_jobs, run_ordered
from repro.harness.runner import SimulationRunner
from repro.obs.bus import InstrumentationBus
from repro.obs.critical_path import analyze_commit_paths
from repro.provenance import config_hash
from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS

PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC, ProtocolKind.SEQ,
             ProtocolKind.BULKSC)


def run_one(app: str, n_cores: int, protocol: ProtocolKind,
            chunks: int, active_cores: Optional[int] = None,
            n_partitions: Optional[int] = None,
            bus: Optional[InstrumentationBus] = None,
            profile: bool = False, seed: Optional[int] = None) -> dict:
    """One simulation -> a JSON-serializable record.

    ``n_partitions`` fixes the total work across machine sizes (strong
    scaling): every run of one application must use the same partition
    count or speedups are meaningless.  ``bus`` optionally instruments
    the run (used by ``--critical-paths``); ``profile`` attaches the
    host-time self-profiler and embeds its attribution report.  ``seed``
    overrides the config's reproducibility seed (campaign matrices sweep
    it; ``None`` keeps the Table 2 default).
    """
    config = SystemConfig(n_cores=n_cores, protocol=protocol)
    if seed is not None:
        config = config.with_(seed=seed)
    runner = SimulationRunner(app, config, active_cores=active_cores,
                              chunks_per_partition=chunks,
                              n_partitions=n_partitions)
    profiler = None
    if profile:
        from repro.obs.profile import HostProfiler
        from repro.provenance import provenance
        profiler = HostProfiler(provenance=provenance(config))
    t0 = time.time()  # repro: allow SB304
    result = runner.run(keep_machine=True, bus=bus, profile=profiler)
    wall = time.time() - t0  # repro: allow SB304
    stats = result.machine.protocol.stats
    record = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "app": app,
        "protocol": protocol.value,
        "n_cores": n_cores,
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
        "wall_seconds": round(wall, 2),
        # unrounded twin of wall_seconds: the bench harness computes
        # cycles/sec from this so sub-0.2s runs are not quantized by the
        # 2-decimal display rounding above
        "wall_seconds_raw": wall,
    }
    if profiler is not None:
        record["profile"] = profiler.report().to_json()
    return record


def key_of(app: str, n_cores: int, protocol: str, active: int) -> str:
    return f"{app}/{n_cores}/{protocol}/{active}"


def atomic_write_text(path: Path, text: str) -> None:
    """Durable single-file checkpoint: temp file + ``os.replace``.

    The temp file lives in the target's own directory so the final
    rename never crosses a filesystem boundary; a crash between write
    and replace leaves the previous file untouched.
    """
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


#: One matrix cell, picklable: (app, n_cores, protocol value, chunks,
#: active_cores, n_partitions, instrument critical paths?, profile?).
SweepTask = tuple


def _sweep_worker(task: SweepTask) -> tuple:
    """Process-pool worker: one matrix cell -> (record, cpath summary)."""
    (app, n_cores, proto_value, chunks, active, n_partitions, want_cp,
     want_profile) = task
    bus = InstrumentationBus(record_messages=False) if want_cp else None
    record = run_one(app, n_cores, ProtocolKind(proto_value), chunks,
                     active_cores=active, n_partitions=n_partitions, bus=bus,
                     profile=want_profile)
    cpath = analyze_commit_paths(bus).summary() if bus is not None else None
    return record, cpath


def _matrix(apps: Sequence[str], core_counts: Sequence[int], chunks: int,
            want_cp: bool, want_profile: bool = False) -> List[tuple]:
    """The full (key, task) matrix in canonical serial order."""
    big = max(core_counts)
    cells: List[tuple] = []
    for app in apps:
        cells.append((key_of(app, big, "baseline1p", 1),
                      (app, big, ProtocolKind.SCALABLEBULK.value, chunks,
                       1, big, want_cp, want_profile)))
        for n in core_counts:
            for proto in PROTOCOLS:
                cells.append((key_of(app, n, proto.value, n),
                              (app, n, proto.value, chunks, None, big,
                               want_cp, want_profile)))
    return cells


def collect(apps: Sequence[str], core_counts: Sequence[int], chunks: int,
            cache_path: Optional[Path] = None,
            log=print,
            critical_paths_path: Optional[Path] = None,
            jobs: int = 1, profile: bool = False) -> Dict[str, dict]:
    """Run the matrix, reusing any cached records.

    ``critical_paths_path`` additionally instruments every fresh run and
    writes a per-configuration commit critical-path summary (phase-latency
    breakdown, per-directory hop dwell) there.  Records already cached
    keep whatever summary they had — only new runs gain one.

    ``jobs > 1`` fans uncached cells out over a process pool; ``jobs=1``
    runs them in-process.  Either way results merge (and the resumable
    cache is saved) in canonical matrix order, so the cache is identical
    for every ``jobs`` value modulo wall-clock fields.
    """
    records: Dict[str, dict] = {}
    if cache_path and cache_path.exists():
        records = json.loads(cache_path.read_text())
        log(f"loaded {len(records)} cached records from {cache_path}")
    cpaths: Dict[str, dict] = {}
    if critical_paths_path and critical_paths_path.exists():
        cpaths = json.loads(critical_paths_path.read_text())

    def save() -> None:
        # Atomic: the cache IS the resumability mechanism, so a SIGINT
        # mid-write must leave the previous checkpoint intact instead of
        # truncated JSON.  Write a sibling temp file, then os.replace()
        # (atomic within one filesystem).
        if cache_path:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(cache_path, json.dumps(records))
        if critical_paths_path and cpaths:
            critical_paths_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(critical_paths_path,
                              json.dumps(cpaths, indent=2, sort_keys=True))

    cells = _matrix(apps, core_counts, chunks,
                    critical_paths_path is not None, profile)
    pending = [(key, task) for key, task in cells if key not in records]
    log(f"{len(cells) - len(pending)} cached, {len(pending)} to run "
        f"on {jobs} workers")

    def merge(i: int, _payload: tuple, result: tuple) -> None:
        key = pending[i][0]
        record, cpath = result
        records[key] = record
        if cpath is not None:
            cpaths[key] = cpath
        save()
        log(f"[{i + 1}/{len(pending)}] {key}: "
            f"{record['total_cycles']} cycles "
            f"({record['wall_seconds']}s)")

    run_ordered(_sweep_worker, [task for _, task in pending], jobs=jobs,
                on_result=merge)
    save()
    return records


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cores", type=int, nargs="+", default=[32, 64])
    parser.add_argument("--chunks", type=int, default=3)
    parser.add_argument("--apps", nargs="+",
                        default=list(SPLASH2_APPS) + list(PARSEC_APPS))
    parser.add_argument("--json", type=Path,
                        default=Path("results/sweep.json"))
    parser.add_argument("--markdown", type=Path,
                        default=Path("results/experiments.md"))
    parser.add_argument("--quick", action="store_true",
                        help="16-core, 4-app smoke sweep")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the matrix (0 = all "
                             "cores); results merge deterministically, so "
                             "the cache matches a serial sweep")
    parser.add_argument("--critical-paths", action="store_true",
                        help="instrument every run and write per-config "
                             "commit critical-path summaries next to the "
                             "JSON cache (critical_paths.json)")
    parser.add_argument("--profile", action="store_true",
                        help="attach the host-time self-profiler to every "
                             "fresh run and embed its attribution report "
                             "in each cached record")
    parser.add_argument("--store", type=Path, default=None, metavar="DB",
                        help="additionally write every sweep record "
                             "through to a repro.store SQLite result "
                             "store (see docs/experiments.md)")
    args = parser.parse_args(argv)

    if args.quick:
        args.cores = [16]
        args.apps = ["Radix", "LU", "Barnes", "Canneal"]
        args.chunks = 2

    from repro.harness.figures import render_markdown
    cp_path = (args.json.parent / "critical_paths.json"
               if args.critical_paths else None)
    records = collect(args.apps, args.cores, args.chunks,
                      cache_path=args.json, critical_paths_path=cp_path,
                      jobs=resolve_jobs(args.jobs), profile=args.profile)
    md = render_markdown(records, args.apps, args.cores, args.chunks)
    args.markdown.parent.mkdir(parents=True, exist_ok=True)
    args.markdown.write_text(md)
    print(f"\nwrote {args.markdown} ({len(md.splitlines())} lines), "
          f"raw records in {args.json}")
    if cp_path is not None:
        print(f"critical-path summaries in {cp_path}")
    if args.store is not None:
        from repro.store.db import ResultStore
        from repro.store.ingest import ingest_sweep
        with ResultStore(args.store) as store:
            stored = ingest_sweep(store, records, source=str(args.json))
        print(f"stored {len(stored)} sweep records in {args.store}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
