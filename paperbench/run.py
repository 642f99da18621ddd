#!/usr/bin/env python3
"""Paper-sweep benchmark: one application's slice of the Figs. 7-19 sweep.

Run from the repository root::

    python3 paperbench/run.py --workload commit-storm --seed 2010 \
        --seconds 50 --trace 0
    python3 paperbench/run.py --workload all           # every workload
    python3 paperbench/run.py --regenerate             # rewrite expected.json

``--trace 0`` runs the workload's fixed number of slices, on seeds
derived from ``--seed``, and reports the end-to-end metrics: each cell's
median over the slices, summed over the slice's cells, in host seconds
scaled to a reference host speed (``cells.HostSpeed``).  ``--seconds``
only warns when the slices overran it; it never changes what is run.
``--trace 1`` runs the slice once untraced and once with per-layer timing
wrappers installed, and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``.  The exit code is 1 when any cell
fails its checks, 2 when the program under test is not there.  See
README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".paperbench"

#: workload -> application; why each was chosen, and why Raytrace's
#: read-mostly slice is not one, is in README.md
WORKLOADS = {
    "commit-storm": "Radix",
    "contended": "Canneal",
}
#: workload -> slices per timed run, on ``cells.slice_seeds``.  Fixed, so
#: a parent and a change always measure the same inputs.  Why these counts
#: is in README.md, "Run length and stability".
SLICES = {
    "commit-storm": 2,
    "contended": 3,
}
PROTOCOLS = ("ScalableBulk", "BulkSC", "TCC", "SEQ")

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    *((f"simulate_s.{p}", "s") for p in PROTOCOLS),
    ("simulate_s.baseline1p", "s"),
    ("gc_s", "s"),
    ("peak_rss_mb", "MB"),
)

_COUNT, _S, _CYC, _RATIO = "count", "s", "cycles", "ratio"
#: (name, unit) of every per-layer metric, reported with ``--trace 1``
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("runner.build_s", _S), ("runner.prewarm_s", _S),
    ("runner.prewarm_lines", _COUNT),
    ("workloads.chunks", _COUNT), ("workloads.self_s", _S),
    ("engine.events", _COUNT), ("engine.self_s", _S),
    ("engine.ns_per_event", "ns"),
    ("network.messages", _COUNT), ("network.self_s", _S),
    ("network.mean_latency_cycles", _CYC),
    ("core.handler_calls", _COUNT), ("core.self_s", _S),
    ("cst.tests", _COUNT), ("cst.self_s", _S),
    ("baselines.handler_calls", _COUNT), ("baselines.self_s", _S),
    ("signatures.ops", _COUNT), ("signatures.self_s", _S),
    ("memory.accesses", _COUNT), ("memory.remote_fills", _COUNT),
    ("memory.invalidations", _COUNT), ("memory.read_nacks", _COUNT),
    ("memory.self_s", _S),
    ("cpu.calls", _COUNT), ("cpu.self_s", _S),
    ("cpu.useful_cycles", _CYC), ("cpu.miss_stall_cycles", _CYC),
    ("cpu.commit_stall_cycles", _CYC), ("cpu.squash_cycles", _CYC),
    ("gc.full_collections", _COUNT), ("gc.self_s", _S),
    ("harness.self_s", _S),
    ("commit.chunks", _COUNT), ("commit.squashes_conflict", _COUNT),
    ("commit.squashes_alias", _COUNT), ("commit.success_ratio", _RATIO),
    *((f"commit.mean_latency_cycles.{p}", _CYC) for p in PROTOCOLS),
    ("commit.mean_dirs", "dirs"), ("commit.mean_queue", "chunks"),
    ("commit.bottleneck_ratio", _RATIO),
    ("trace.overhead_ratio", _RATIO),
    # modelled figure values (Figs. 7/8, 9/10, 13): recorded, never gated
    *((f"model.{p}.{n}p.{m}", u)
      for p in PROTOCOLS for n in (32, 64)
      for m, u in (("norm_time", _RATIO), ("commit_latency", _CYC),
                   ("dirs_per_commit", "dirs"))),
)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def moved_fields(expected: dict, actual: dict) -> List[str]:
    """``field: expected -> actual`` for every record field that differs."""
    return [f"{k}: {expected.get(k)!r} -> {actual.get(k)!r}"
            for k in sorted(set(expected) | set(actual))
            if expected.get(k) != actual.get(k)]


def check_cells(workload: str, seed: int, cells: list, expected: dict,
                log) -> int:
    """Mark failed cells in place (``error``) and return how many failed.

    On a seed ``expected.json`` holds digests for (the default seed's
    slice seeds), every cell must match its digest; on any other seed only
    the invariants ``run_cell`` applies hold, and the digests are reported
    unchecked.
    """
    refs = expected.get(workload, {}).get(str(seed))
    failed = 0
    for cell in cells:
        if cell.error is None and refs is not None:
            ref = refs.get(cell.key)
            if ref is None:
                cell.error = "no expected digest (run --regenerate)"
            elif ref["digest"] != cell.digest:
                cell.error = "digest mismatch; moved: " + ", ".join(
                    moved_fields(ref["record"], cell.record))
        if cell.error is not None:
            failed += 1
            log(f"FAILED {workload} seed {seed} {cell.key}: {cell.error}")
    return failed


def report_digests(workload: str, seed: int, cells: list, expected: dict,
                   log) -> None:
    checked = str(seed) in expected.get(workload, {})
    log(f"digests ({workload}, seed {seed}, "
        f"{'checked' if checked else 'unchecked, invariants only'}):")
    for cell in cells:
        log(f"  {cell.key:32s} {cell.digest}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median_by_cell(reps: List[list], attr: str) -> Dict[str, float]:
    return {cell.key: statistics.median(getattr(rep[i], attr) for rep in reps)
            for i, cell in enumerate(reps[0])}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(reps: List[list], rss_mb: float,
               factor: float) -> Dict[str, float]:
    """Each cell's median over the slices, summed per metric; host seconds
    are scaled to the reference host by ``factor`` (``cells.HostSpeed``)."""
    wall = _median_by_cell(reps, "wall_s")
    setup = _median_by_cell(reps, "setup_s")
    sim = _median_by_cell(reps, "simulate_s")
    gc_s = _median_by_cell(reps, "gc_s")
    out = {"wall_s": sum(wall.values()), "setup_s": sum(setup.values()),
           "gc_s": sum(gc_s.values())}
    for p in (*PROTOCOLS, "baseline1p"):
        out[f"simulate_s.{p}"] = sum(sim[c.key] for c in reps[0]
                                     if c.protocol == p)
    out = {name: seconds * factor for name, seconds in out.items()}
    out["peak_rss_mb"] = rss_mb
    return out


def _mean_hist(records: List[dict], field: str) -> float:
    total = count = 0
    for rec in records:
        for k, v in rec[field].items():
            total += int(k) * v
            count += v
    return total / count if count else 0.0


def per_layer(untraced: list, tracer, untraced_wall: float,
              traced_wall: float) -> Dict[str, float]:
    """Counts from the untraced slice (call counts, which tracing does not
    change, from the traced one) and self seconds from the traced one."""
    secs, calls = tracer.by_layer()
    records = [c.record for c in untraced]

    def total(name: str) -> int:
        return sum(c.counts[name] for c in untraced)

    def rec_sum(field: str) -> int:
        return sum(r[field] for r in records)

    events, messages = total("events"), total("messages")
    committed = rec_sum("chunks_committed")
    out = {
        "runner.build_s": tracer.self_s["runner.build"],
        "runner.prewarm_s": tracer.self_s["runner.prewarm"],
        "runner.prewarm_lines": total("prewarm_lines"),
        "workloads.chunks": total("chunks"),
        "engine.events": events,
        "engine.ns_per_event": secs.get("engine", 0.0) / events * 1e9,
        "network.messages": messages,
        "network.mean_latency_cycles": total("latency_cycles") / messages,
        "core.handler_calls": calls.get("core", 0),
        "cst.tests": calls.get("cst", 0),
        "baselines.handler_calls": calls.get("baselines", 0),
        "signatures.ops": calls.get("signatures", 0),
        "memory.accesses": tracer.calls["memory.access"],
        "memory.remote_fills": tracer.calls["memory.fill_remote"],
        "memory.invalidations": tracer.calls["memory.invalidate"],
        "memory.read_nacks": total("read_nacks"),
        "cpu.calls": calls.get("cpu", 0),
        "cpu.useful_cycles": rec_sum("useful"),
        "cpu.miss_stall_cycles": rec_sum("miss"),
        "cpu.commit_stall_cycles": rec_sum("commit"),
        "cpu.squash_cycles": rec_sum("squash"),
        "gc.full_collections": total("full_collections"),
        "commit.chunks": committed,
        "commit.squashes_conflict": rec_sum("squashes_conflict"),
        "commit.squashes_alias": rec_sum("squashes_alias"),
        "commit.success_ratio": committed / (committed
                                             + total("commit_failures")),
        "commit.mean_dirs": _mean_hist(records, "dirs_hist"),
        "commit.mean_queue": statistics.fmean(r["mean_queue"]
                                              for r in records),
        "commit.bottleneck_ratio": statistics.fmean(r["bottleneck_ratio"]
                                                    for r in records),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for layer in ("workloads", "engine", "network", "core", "cst",
                  "baselines", "signatures", "memory", "cpu", "gc", "harness"):
        out[f"{layer}.self_s"] = secs.get(layer, 0.0)
    base = next(c.record for c in untraced if c.protocol == "baseline1p")
    for p in PROTOCOLS:
        mine = [c.record for c in untraced if c.protocol == p]
        out[f"commit.mean_latency_cycles.{p}"] = _mean_hist(mine,
                                                            "latency_hist")
        for rec in mine:
            prefix = f"model.{p}.{rec['n_cores']}p"
            out[f"{prefix}.norm_time"] = (rec["total_cycles"]
                                          / base["total_cycles"])
            out[f"{prefix}.commit_latency"] = rec["mean_commit_latency"]
            out[f"{prefix}.dirs_per_commit"] = rec["mean_dirs"]
    return out


def _result_line(names, values: Dict[str, float], attempted: int,
                 failed: int) -> str:
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _print_table(workload: str, names, values: Dict[str, float],
                 failed: int, attempted: int) -> None:
    print(f"== {workload} ({WORKLOADS[workload]}) ==")
    for name, unit in names:
        print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    print(f"  {'cell_fail_ratio':40s} {failed / attempted:>14.6g} "
          f"({failed}/{attempted} cells)")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_timed(workload: str, seed: int, seconds: float) -> int:
    """Run the workload's ``SLICES`` slices, on ``seed``'s slice seeds."""
    from cells import HostSpeed, clock, run_slice, slice_seeds

    app = WORKLOADS[workload]
    seeds = slice_seeds(seed, SLICES[workload])
    gauge = HostSpeed()
    start = clock()
    reps = [run_slice(app, s, gauge=gauge) for s in seeds]
    gauge.sample()
    elapsed = clock() - start
    if elapsed > seconds:
        print(f"warning: {len(reps)} slice(s) took {elapsed:.1f} s, more "
              f"than --seconds {seconds:g}", file=sys.stderr)
    expected = load_expected()
    failed = sum(check_cells(workload, s, cells, expected, print)
                 for s, cells in zip(seeds, reps))
    for s, cells in zip(seeds, reps):
        report_digests(workload, s, cells, expected, print)
    attempted = sum(len(cells) for cells in reps)
    factor = gauge.factor()
    values = (end_to_end(reps, peak_rss_mb(), factor) if not failed
              else {n: 0.0 for n, _ in END_TO_END})
    print(f"{workload}: {len(reps)} slice(s) in {elapsed:.1f} s; host "
          f"speed factor {factor:.4f} (median of {len(gauge.samples)} "
          f"gauge samples; host seconds are multiplied by it)")
    _print_table(workload, END_TO_END, values, failed, attempted)
    print(_result_line(END_TO_END, values, attempted, failed))
    return 1 if failed else 0


def run_traced(workload: str, seed: int) -> int:
    """One untraced and one traced slice on ``seed`` itself."""
    from cells import clock, run_slice
    from layers import LayerTracer

    app = WORKLOADS[workload]
    t0 = clock()
    untraced = run_slice(app, seed)
    untraced_wall = clock() - t0
    with LayerTracer() as tracer:
        t0 = clock()
        traced = run_slice(app, seed, tracer)
        traced_wall = clock() - t0
    for plain, seen in zip(untraced, traced):
        if seen.error is None and seen.digest != plain.digest:
            seen.error = "traced digest differs from the untraced one"
    expected = load_expected()
    failed = sum(check_cells(workload, seed, cells, expected, print)
                 for cells in (untraced, traced))
    report_digests(workload, seed, traced, expected, print)
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall, "self_s": tracer.self_s,
        "calls": tracer.calls, "spans": tracer.spans}, indent=1))
    print(f"spans and counters written to {out.relative_to(ROOT)}")
    values = (per_layer(untraced, tracer, untraced_wall, traced_wall)
              if not failed else {n: 0.0 for n, _ in PER_LAYER})
    attempted = len(untraced) + len(traced)
    _print_table(workload, PER_LAYER, values, failed, attempted)
    print(_result_line(PER_LAYER, values, attempted, failed))
    return 1 if failed else 0


def regenerate() -> int:
    """Rewrite expected.json: every slice a timed run on the default seed
    runs, once."""
    from cells import CHUNKS, DEFAULT_SEED, run_slice, slice_seeds

    doc: dict = {"seed": DEFAULT_SEED, "chunks": CHUNKS}
    for workload, app in WORKLOADS.items():
        doc[workload] = {}
        for seed in slice_seeds(DEFAULT_SEED, SLICES[workload]):
            cells = run_slice(app, seed)
            broken = [c for c in cells if c.error]
            for c in broken:
                print(f"FAILED {workload} seed {seed} {c.key}: {c.error}",
                      file=sys.stderr)
            if broken:
                return 1
            doc[workload][str(seed)] = {
                c.key: {"digest": c.digest, "record": c.record}
                for c in cells}
            print(f"{workload} seed {seed}: {len(cells)} digests", flush=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, passed only as SystemConfig.seed "
                             "(default: the seed expected.json checks)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="expected length of a timed run; only "
                             "warns when the fixed slices overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite expected.json on the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources ({SRC.name}/repro) are not "
              f"beside {HERE.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.regenerate:
        return regenerate()
    from cells import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        # one process per workload, so that each reports its own peak memory
        status = 0
        for workload in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    if args.trace:
        return run_traced(args.workload, seed)
    return run_timed(args.workload, seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
