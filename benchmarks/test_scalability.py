"""Scalability shape check: the paper's headline claim.

Going from a small to a large machine, ScalableBulk's commit latency grows
modestly and its commit-stall fraction stays ~0, while BulkSC's central
arbiter degrades sharply (paper: mean latency 98 -> 2954 cycles from 32p
to 64p) and SEQ's occupation latency grows with group size.
"""

from repro.config import ProtocolKind
from repro.harness.runner import run_app

from conftest import CHUNKS, FULL

SIZES = (16, 64) if FULL else (16, 36)
APP = "Radix"  # the large-group stressor


def test_scalablebulk_scales():
    def sweep():
        return {n: run_app(APP, n_cores=n, chunks_per_partition=CHUNKS)
                for n in SIZES}

    results = sweep()
    print(f"\nScalability ({APP}):")
    for n, r in results.items():
        frac = r.breakdown_fractions()
        print(f"  {n:3d} cores: commit latency {r.mean_commit_latency:7.1f} "
              f"commit stall {frac['Commit'] * 100:4.1f}% "
              f"dirs/commit {r.mean_dirs_per_commit:.2f}")
    small, big = (results[n] for n in SIZES)
    # no commit stalls at either scale
    for r in (small, big):
        assert r.breakdown_fractions()["Commit"] < 0.05
    # group size grows with machine size (more homes to spread over)
    assert big.mean_dirs_per_commit >= small.mean_dirs_per_commit


def test_bulksc_arbiter_degrades():
    def sweep():
        return {n: run_app(APP, n_cores=n, protocol=ProtocolKind.BULKSC,
                           chunks_per_partition=CHUNKS)
                for n in SIZES}

    results = sweep()
    small, big = (results[n] for n in SIZES)
    print(f"\nBulkSC arbiter ({APP}): "
          + ", ".join(f"{n}p lat={results[n].mean_commit_latency:.0f}"
                      for n in SIZES))
    # the centralized arbiter's latency grows super-proportionally
    assert big.mean_commit_latency > small.mean_commit_latency * 1.5


def test_seq_occupation_grows_with_group():
    def sweep():
        return {n: run_app(APP, n_cores=n, protocol=ProtocolKind.SEQ,
                           chunks_per_partition=CHUNKS)
                for n in SIZES}

    results = sweep()
    small, big = (results[n] for n in SIZES)
    print(f"\nSEQ occupation ({APP}): "
          + ", ".join(f"{n}p lat={results[n].mean_commit_latency:.0f}"
                      for n in SIZES))
    assert big.mean_commit_latency > small.mean_commit_latency
