"""Figure data from sweep records: the one path from runs to figures.

Every function here is pure.  It reads the records dict that
:func:`repro.harness.sweep.collect` returns (one
:func:`~repro.harness.sweep.run_one` record per matrix cell, keyed by
:func:`~repro.harness.sweep.key_of`) and returns one figure's data.  The
``benchmarks/`` shape checks, ``examples/paper_figures.py`` and
:func:`render_markdown` (which writes ``results/experiments.md``) all read
the same records through these functions, so a claim checked in one place
is computed exactly as the number published in the other.

``base_cores`` names the machine the single-processor baseline ran on: the
largest core count of the sweep, whose partition count every run of an
application is pinned to (strong scaling).  It defaults to the bar's own
machine size.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import ProtocolKind, SystemConfig
from repro.harness.sweep import PROTOCOLS, key_of
from repro.network.message import TrafficClass
from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS

Records = Mapping[str, dict]

#: Columns of the bottleneck-ratio figures (14/15); BulkSC forms no groups.
GROUPING_PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC,
                      ProtocolKind.SEQ)

#: Columns of the chunk-queue figures (16/17): the protocols with
#: directory queues, then ScalableBulk, which never queues.
QUEUEING_PROTOCOLS = (ProtocolKind.TCC, ProtocolKind.SEQ,
                      ProtocolKind.SCALABLEBULK)

#: Display order for the traffic figures (read classes then commit classes).
TRAFFIC_ORDER = ("MemRd", "RemoteShRd", "RemoteDirtyRd", "LargeCMessage",
                 "SmallCMessage")

#: Upper bucket of the Figs. 11/12 x-axis; larger counts go under "more".
DIST_UPPER = 14


def record(records: Records, app: str, n_cores: int,
           protocol: ProtocolKind) -> dict:
    """The record of one (application, machine, protocol) cell."""
    return records[key_of(app, n_cores, protocol.value, n_cores)]


def baseline(records: Records, app: str, base_cores: int) -> dict:
    """The single-processor ScalableBulk run that Figs. 7/8 normalize to."""
    return records[key_of(app, base_cores, "baseline1p", 1)]


# ----------------------------------------------------------------------
# Figures 7/8: execution-time breakdown
# ----------------------------------------------------------------------
def breakdown(records: Records, app: str, n_cores: int,
              protocol: ProtocolKind,
              base_cores: Optional[int] = None) -> Dict[str, float]:
    """One bar: normalized time, speedup, and the time split into parts.

    ``useful + miss + commit + squash`` sums to ``norm``.
    """
    rec = record(records, app, n_cores, protocol)
    base = baseline(records, app, base_cores or n_cores)
    total = max(1, rec["useful"] + rec["miss"] + rec["commit"] + rec["squash"])
    norm_time = rec["total_cycles"] / max(1, base["total_cycles"])
    return {
        "norm": norm_time,
        "speedup": base["total_cycles"] / max(1, rec["total_cycles"]),
        "useful": norm_time * rec["useful"] / total,
        "miss": norm_time * rec["miss"] / total,
        "commit": norm_time * rec["commit"] / total,
        "squash": norm_time * rec["squash"] / total,
    }


def average_speedup(records: Records, apps: Sequence[str], n_cores: int,
                    protocol: ProtocolKind,
                    base_cores: Optional[int] = None) -> float:
    """Mean speedup over ``apps`` (the AVERAGE bar of Figs. 7/8)."""
    speedups = [breakdown(records, app, n_cores, protocol,
                          base_cores)["speedup"] for app in apps]
    return sum(speedups) / len(speedups)


def average_commit_fraction(records: Records, apps: Sequence[str],
                            n_cores: int, protocol: ProtocolKind,
                            base_cores: Optional[int] = None) -> float:
    """Mean share of each bar that is commit stall, over ``apps``."""
    shares = []
    for app in apps:
        bar = breakdown(records, app, n_cores, protocol, base_cores)
        shares.append(bar["commit"] / max(bar["norm"], 1e-12))
    return sum(shares) / len(shares)


# ----------------------------------------------------------------------
# Figures 9-13: directories per commit and commit latency (ScalableBulk
# for the directory figures)
# ----------------------------------------------------------------------
def dirs_per_commit(records: Records, app: str, n_cores: int
                    ) -> Tuple[float, float, float]:
    """Figs. 9/10: mean dirs per commit, its write group, its read-only rest."""
    rec = record(records, app, n_cores, ProtocolKind.SCALABLEBULK)
    return (rec["mean_dirs"], rec["mean_write_dirs"],
            rec["mean_dirs"] - rec["mean_write_dirs"])


def dirs_distribution(records: Records, app: str, n_cores: int,
                      upper: int = DIST_UPPER) -> Dict[object, float]:
    """Figs. 11/12: percent of commits at each dir count 0..upper, "more".

    The values sum to 100 (or are all 0 when nothing committed).
    """
    hist = record(records, app, n_cores, ProtocolKind.SCALABLEBULK)["dirs_hist"]
    n_total = sum(hist.values()) or 1
    counts: Dict[object, int] = {k: 0 for k in range(upper + 1)}
    counts["more"] = 0
    for k, v in hist.items():
        counts[int(k) if int(k) <= upper else "more"] += v
    return {k: 100 * v / n_total for k, v in counts.items()}


def commit_latency(records: Records, apps: Sequence[str], n_cores: int,
                   protocol: ProtocolKind) -> Tuple[float, int]:
    """Fig. 13: (mean commit latency, number of commits) pooled over apps."""
    cycles = count = 0
    for app in apps:
        hist = record(records, app, n_cores, protocol)["latency_hist"]
        for k, v in hist.items():
            cycles += int(k) * v
            count += v
    return (cycles / count if count else 0.0), count


# ----------------------------------------------------------------------
# Figures 14-19: per-protocol values at one machine size
# ----------------------------------------------------------------------
def bottleneck_ratios(records: Records, app: str, n_cores: int
                      ) -> Dict[ProtocolKind, float]:
    """Figs. 14/15: bottleneck ratio per grouping protocol."""
    return {p: record(records, app, n_cores, p)["bottleneck_ratio"]
            for p in GROUPING_PROTOCOLS}


def queue_lengths(records: Records, app: str, n_cores: int
                  ) -> Dict[ProtocolKind, float]:
    """Figs. 16/17: mean chunk queue length per protocol."""
    return {p: record(records, app, n_cores, p)["mean_queue"]
            for p in QUEUEING_PROTOCOLS}


def traffic(records: Records, app: str, n_cores: int
            ) -> Dict[ProtocolKind, Dict[str, int]]:
    """Figs. 18/19: raw message counts by class, per protocol."""
    return {p: record(records, app, n_cores, p)["traffic"] for p in PROTOCOLS}


def normalize_traffic(per_proto: Mapping[ProtocolKind, Mapping[str, int]]
                      ) -> Dict[ProtocolKind, Dict[str, float]]:
    """Normalize message counts to TCC's total, folding request/forward
    control traffic ('Other') into the read class mix as the paper does.

    Without a TCC entry each protocol is normalized to its own total.
    """
    def folded(counts: Mapping[str, int]) -> Dict[str, float]:
        out = {k: float(counts.get(k, 0)) for k in TRAFFIC_ORDER}
        other = float(counts.get(TrafficClass.OTHER.value, 0))
        reads = out["MemRd"] + out["RemoteShRd"] + out["RemoteDirtyRd"]
        if reads > 0:
            for k in ("MemRd", "RemoteShRd", "RemoteDirtyRd"):
                out[k] += other * out[k] / reads
        else:
            out["MemRd"] += other
        return out

    tcc = per_proto.get(ProtocolKind.TCC)
    tcc_total = sum(folded(tcc).values()) if tcc else None
    result: Dict[ProtocolKind, Dict[str, float]] = {}
    for proto, counts in per_proto.items():
        f = folded(counts)
        denom = tcc_total or sum(f.values()) or 1.0
        result[proto] = {k: 100.0 * v / denom for k, v in f.items()}
    return result


def squash_rates(records: Records, apps: Sequence[str], n_cores: int
                 ) -> Tuple[float, float]:
    """Section 6.1: ScalableBulk (conflict, aliasing) squashes, % of chunks."""
    chunks = conflict = alias = 0
    for app in apps:
        rec = record(records, app, n_cores, ProtocolKind.SCALABLEBULK)
        chunks += rec["chunks_committed"]
        conflict += rec["squashes_conflict"]
        alias += rec["squashes_alias"]
    return 100 * conflict / max(1, chunks), 100 * alias / max(1, chunks)


# ----------------------------------------------------------------------
# Markdown (results/experiments.md)
# ----------------------------------------------------------------------
#: The paper's mean commit latencies (Fig. 13), in cycles.
PAPER_LATENCY_64P = {"ScalableBulk": 91, "TCC": 411, "SEQ": 153,
                     "BulkSC": 2954}


def render_markdown(records: Records, apps: Sequence[str],
                    core_counts: Sequence[int], chunks: int) -> str:
    """Every figure's table, from the sweep's records."""
    big = max(core_counts)
    lines: List[str] = []
    w = lines.append

    splash = [a for a in apps if a in SPLASH2_APPS]
    parsec = [a for a in apps if a in PARSEC_APPS]

    def suites(*fignos: str):
        for figno, suite, suite_apps in zip(fignos, ("SPLASH-2", "PARSEC"),
                                            (splash, parsec)):
            if suite_apps:
                yield figno, suite, suite_apps

    w(f"Sweep parameters: cores={list(core_counts)}, "
      f"chunks/partition={chunks}, "
      f"chunk={SystemConfig().chunk_size_instructions} instructions, "
      f"{len(apps)} applications.\n")

    for figno, suite, suite_apps in suites("7", "8"):
        w(f"### Figure {figno} — {suite} execution time "
          f"(normalized to 1p ScalableBulk)\n")
        w("| app | cores | protocol | norm. time | speedup | useful | "
          "miss | commit | squash |")
        w("|---|---|---|---|---|---|---|---|---|")
        for app in suite_apps:
            for n in core_counts:
                for proto in PROTOCOLS:
                    nb = breakdown(records, app, n, proto, big)
                    w(f"| {app} | {n} | {proto.value} | {nb['norm']:.4f} | "
                      f"{nb['speedup']:.1f} | {nb['useful']:.4f} | "
                      f"{nb['miss']:.4f} | {nb['commit']:.4f} | "
                      f"{nb['squash']:.4f} |")
        w("")
        for n in core_counts:
            for proto in PROTOCOLS:
                avg = average_speedup(records, suite_apps, n, proto, big)
                w(f"* AVERAGE speedup, {proto.value} @ {n}p: **{avg:.1f}**")
        w("")

    for figno, suite, suite_apps in suites("9", "10"):
        w(f"### Figure {figno} — directories per chunk commit ({suite})\n")
        w("| app | cores | dirs/commit | write group | read-only group |")
        w("|---|---|---|---|---|")
        for app in suite_apps:
            for n in core_counts:
                dirs, write, read = dirs_per_commit(records, app, n)
                w(f"| {app} | {n} | {dirs:.2f} | {write:.2f} | {read:.2f} |")
        w("")

    for figno, suite, suite_apps in suites("11", "12"):
        w(f"### Figure {figno} — distribution of dirs/commit "
          f"({suite}, {big}p, % of commits)\n")
        cols = list(range(DIST_UPPER + 1)) + ["more"]
        w("| app | " + " | ".join(str(c) for c in cols) + " |")
        w("|---|" + "---|" * len(cols))
        for app in suite_apps:
            pct = dirs_distribution(records, app, big)
            w(f"| {app} | " + " | ".join(f"{pct[c]:.0f}" for c in cols)
              + " |")
        w("")

    w(f"### Figure 13 — commit latency ({big}p, mean cycles over all apps)\n")
    w("| protocol | measured mean | paper mean (64p) |")
    w("|---|---|---|")
    for proto in PROTOCOLS:
        mean, _ = commit_latency(records, apps, big, proto)
        w(f"| {proto.value} | {mean:.0f} | {PAPER_LATENCY_64P[proto.value]} |")
    w("")
    if len(core_counts) > 1:
        small = min(core_counts)
        w(f"At {small}p, measured means: " + ", ".join(
            f"{proto.value}="
            f"{commit_latency(records, apps, small, proto)[0]:.0f}"
            for proto in PROTOCOLS)
          + " (paper at 32p: ScalableBulk=74, TCC=402, SEQ=107, BulkSC=98)\n")

    for figno, suite, suite_apps in suites("14", "15"):
        w(f"### Figure {figno} — bottleneck ratio ({suite}, {big}p)\n")
        w("| app | " + " | ".join(p.value for p in GROUPING_PROTOCOLS) + " |")
        w("|---|---|---|---|")
        for app in suite_apps:
            vals = bottleneck_ratios(records, app, big).values()
            w(f"| {app} | " + " | ".join(f"{v:.2f}" for v in vals) + " |")
        w("")

    for figno, suite, suite_apps in suites("16", "17"):
        w(f"### Figure {figno} — chunk queue length ({suite}, {big}p)\n")
        w("| app | " + " | ".join(p.value for p in QUEUEING_PROTOCOLS) + " |")
        w("|---|---|---|---|")
        for app in suite_apps:
            vals = queue_lengths(records, app, big).values()
            w(f"| {app} | " + " | ".join(f"{v:.2f}" for v in vals) + " |")
        w("")

    for figno, suite, suite_apps in suites("18", "19"):
        w(f"### Figure {figno} — message mix ({suite}, {big}p, % of TCC "
          f"total)\n")
        w("| app | protocol | " + " | ".join(TRAFFIC_ORDER) + " | total |")
        w("|---|---|" + "---|" * (len(TRAFFIC_ORDER) + 1))
        for app in suite_apps:
            norm = normalize_traffic(traffic(records, app, big))
            for proto in PROTOCOLS:
                mix = norm[proto]
                row = " | ".join(f"{mix[k]:.1f}" for k in TRAFFIC_ORDER)
                w(f"| {app} | {proto.value} | {row} | "
                  f"{sum(mix.values()):.1f} |")
        w("")

    conflict, alias = squash_rates(records, apps, big)
    w(f"### Squash rates (ScalableBulk, {big}p; paper: 1.5% conflicts + "
      f"2.3% aliasing)\n")
    w(f"* conflicts: {conflict:.1f}% of chunks; aliasing: {alias:.1f}%\n")

    return "\n".join(lines)


__all__ = [
    "DIST_UPPER",
    "GROUPING_PROTOCOLS",
    "PAPER_LATENCY_64P",
    "QUEUEING_PROTOCOLS",
    "Records",
    "TRAFFIC_ORDER",
    "average_commit_fraction",
    "average_speedup",
    "baseline",
    "bottleneck_ratios",
    "breakdown",
    "commit_latency",
    "dirs_distribution",
    "dirs_per_commit",
    "normalize_traffic",
    "queue_lengths",
    "record",
    "render_markdown",
    "squash_rates",
    "traffic",
]
