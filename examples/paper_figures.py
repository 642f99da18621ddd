#!/usr/bin/env python
"""Render the paper's key figures as terminal charts, at demo scale.

Runs a miniature sweep (three applications, one machine size) and draws
Figures 7 (execution breakdown), 9 (directories per commit), 11
(distribution of directories per commit) and 13 (commit-latency
comparison) from its records with the ASCII chart renderers — the same
records-to-figures functions that produce EXPERIMENTS.md, and no plotting
libraries.

Run:  python examples/paper_figures.py [n_cores]
"""

import sys

from repro.config import ProtocolKind
from repro.harness import figures, sweep
from repro.harness.ascii_plots import (
    distribution_plot, grouped_bars, hbar_chart, stacked_bars,
)

APPS = ["Radix", "LU", "Barnes"]
PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.SEQ)


def main() -> None:
    n_cores = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    records = sweep.collect(APPS, [n_cores], 2, log=lambda _msg: None)

    print(f"=== Figure 7 (miniature): execution-time breakdown, "
          f"{n_cores} cores ===\n")
    cells = [(app, proto) for app in APPS for proto in PROTOCOLS]
    bars = [figures.breakdown(records, app, n_cores, proto)
            for app, proto in cells]
    print(stacked_bars(
        [f"{app}_{n_cores} {proto.value}" for app, proto in cells],
        {"Useful": [b["useful"] for b in bars],
         "Cache Miss": [b["miss"] for b in bars],
         "Commit": [b["commit"] for b in bars],
         "Squash": [b["squash"] for b in bars]},
        width=46))
    print()

    print("=== Figure 9 (miniature): directories per chunk commit ===\n")
    rows = [figures.dirs_per_commit(records, app, n_cores) for app in APPS]
    print(grouped_bars(
        APPS,
        {"write group": [write for _, write, _ in rows],
         "read group": [read for _, _, read in rows]},
        width=36))
    print()

    print(f"=== Figure 11 (miniature): Radix dirs/commit distribution, "
          f"{n_cores} cores ===\n")
    print(distribution_plot(figures.dirs_distribution(records, "Radix",
                                                      n_cores)))
    print()

    print("=== Figure 13 (miniature): mean commit latency ===\n")
    means = {p.value: figures.commit_latency(records, APPS, n_cores, p)[0]
             for p in sweep.PROTOCOLS}
    print(hbar_chart(means, width=46, unit=" cy"))


if __name__ == "__main__":
    main()
