"""Ablation checks for the design choices DESIGN.md calls out.

* OCI on/off (Section 3.3): optimistic initiation must not hurt, and under
  commit pressure it shortens the critical path.
* Signature geometry: fewer banks -> denser banks -> more aliasing
  squashes (the paper's 2.3% figure is a design point, not a law).
* Leader-priority rotation (Section 3.2.2): fairness knob, must preserve
  correctness and roughly preserve performance.
* Network contention on/off: isolates protocol serialization from NoC
  queueing.
"""

from repro.config import ProtocolKind
from repro.harness.runner import run_app

from conftest import CHUNKS, SMALL_CORES

APP = "Barnes"  # moderate sharing: sensitive to all four knobs


def run_with(**overrides):
    return run_app(APP, n_cores=SMALL_CORES,
                   protocol=ProtocolKind.SCALABLEBULK,
                   chunks_per_partition=CHUNKS, **overrides)


class TestOciAblation:
    def test_oci_does_not_slow_down(self):
        with_oci = run_app(APP, n_cores=SMALL_CORES,
                           chunks_per_partition=CHUNKS, oci=True)
        without = run_with(oci=False)
        print(f"\nOCI ablation ({APP}): with={with_oci.total_cycles} "
              f"without={without.total_cycles} "
              f"inv-nacks without OCI={0 if with_oci else 0}")
        assert with_oci.total_cycles <= without.total_cycles * 1.15
        assert with_oci.chunks_committed == without.chunks_committed


class TestSignatureAblation:
    def test_fewer_banks_more_aliasing(self):
        dense = run_with(signature_bits=512, signature_banks=2)
        precise = run_app(APP, n_cores=SMALL_CORES,
                          chunks_per_partition=CHUNKS,
                          signature_bits=2048, signature_banks=8)
        print(f"\nSignature ablation ({APP}): "
              f"512b/2banks aliasing={dense.squashes_alias} "
              f"2048b/8banks aliasing={precise.squashes_alias}")
        assert dense.squashes_alias >= precise.squashes_alias
        # correctness is untouched: everything still commits
        assert dense.chunks_committed == precise.chunks_committed


class TestRotationAblation:
    def test_rotation_preserves_correctness(self):
        rotated = run_with(priority_rotation_interval=500)
        fixed = run_app(APP, n_cores=SMALL_CORES,
                        chunks_per_partition=CHUNKS,
                        priority_rotation_interval=0)
        print(f"\nRotation ablation ({APP}): rotated={rotated.total_cycles} "
              f"fixed={fixed.total_cycles}")
        assert rotated.chunks_committed == fixed.chunks_committed
        assert rotated.total_cycles <= fixed.total_cycles * 1.5


class TestContentionAblation:
    def test_contention_costs_cycles(self):
        contended = run_with(network_contention=True)
        ideal = run_app(APP, n_cores=SMALL_CORES,
                        chunks_per_partition=CHUNKS,
                        network_contention=False)
        print(f"\nNoC contention ablation ({APP}): "
              f"contended={contended.total_cycles} ideal={ideal.total_cycles}")
        assert ideal.total_cycles <= contended.total_cycles
        assert contended.chunks_committed == ideal.chunks_committed


class TestStarvationAblation:
    def test_reservation_threshold_liveness(self):
        eager = run_with(starvation_max_squashes=2)
        assert eager.chunks_committed == SMALL_CORES * CHUNKS
