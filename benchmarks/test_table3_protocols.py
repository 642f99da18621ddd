"""Table 3: the four simulated cache-coherence protocols."""

from repro.config import ProtocolKind
from repro.harness.runner import run_app

from conftest import CHUNKS, SMALL_CORES


def test_table3_all_protocols_complete():
    def run_all():
        return {proto: run_app("LU", n_cores=SMALL_CORES, protocol=proto,
                               chunks_per_partition=CHUNKS)
                for proto in ProtocolKind}

    results = run_all()
    print("\nTable 3 (simulated protocols):")
    for proto, r in results.items():
        assert r.chunks_committed == r.active_cores * CHUNKS
        print(f"  {proto.value:14s} commits={r.chunks_committed:4d} "
              f"cycles={r.total_cycles:8d} "
              f"mean commit latency={r.mean_commit_latency:7.1f}")
    # the four protocols are genuinely different machines
    cycles = {r.total_cycles for r in results.values()}
    assert len(cycles) >= 2
