"""Sensitivity checks around the paper's design arguments (Section 2.2/2.3).

The chunk-size sweep reproduces the paper's explanation of why Scalable
TCC's own evaluation saw no commit bottleneck: with 10k+-instruction
transactions, commits are rare enough to hide; at 2k-instruction chunks
they are not.
"""

from repro.config import ProtocolKind
from repro.harness.sensitivity import (
    backoff_sweep, chunk_size_sweep, render_sweep, signature_sweep,
)

from conftest import SMALL_CORES


def test_commit_criticality_vs_chunk_size():
    points = chunk_size_sweep("Radix", SMALL_CORES, (1000, 2000, 8000))
    print("\nChunk-size sweep (Section 2.2 argument):")
    print(render_sweep(points, "chunk_size"))

    seq = {p.x: p for p in points if p.protocol is ProtocolKind.SEQ}
    # commits per kilocycle must fall as chunks grow (fewer, bigger commits)
    assert seq[8000].commits_per_kcycle < seq[1000].commits_per_kcycle
    # and SEQ's commit latency is paid less often, so its relative commit
    # overhead shrinks with chunk size
    assert seq[8000].commit_fraction <= max(seq[1000].commit_fraction,
                                            seq[2000].commit_fraction) + 0.02


def test_signature_geometry_vs_aliasing():
    points = signature_sweep("Barnes", SMALL_CORES)
    print("\nSignature-geometry sweep:")
    print(render_sweep(points, "sig_bits"))
    tiny = [p for p in points if p.x == 512][0]
    big = [p for p in points if p.x == 2048][-1]
    assert tiny.squashes_alias >= big.squashes_alias


def test_backoff_sweep_completes():
    points = backoff_sweep("Canneal", SMALL_CORES, (10, 100))
    print("\nRetry-backoff sweep:")
    print(render_sweep(points, "backoff"))
    assert all(p.total_cycles > 0 for p in points)
