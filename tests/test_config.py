"""Tests for system configuration validation and derived geometry."""

import pytest

from repro.config import (
    CacheConfig, ProtocolKind, SystemConfig, TABLE2_CONFIGS, table2_config,
)
from repro.provenance import config_hash


class TestDefaults:
    def test_table2_defaults(self):
        c = SystemConfig()
        assert c.n_cores == 64
        assert c.chunk_size_instructions == 2000
        assert c.signature_bits == 2048
        assert c.l1.n_sets == 256
        assert c.l2.n_sets == 2048
        assert c.lines_per_page == 128

    def test_table2_registry(self):
        assert TABLE2_CONFIGS[32].n_cores == 32
        assert TABLE2_CONFIGS[64].n_cores == 64

    def test_protocol_str(self):
        assert str(ProtocolKind.SCALABLEBULK) == "ScalableBulk"


class TestValidation:
    def test_signature_bits_divisible(self):
        with pytest.raises(ValueError):
            SystemConfig(signature_bits=100, signature_banks=3)

    def test_page_multiple_of_line(self):
        bad_l2 = CacheConfig(512 * 1024, 8, 24, 8, 64)
        with pytest.raises(ValueError):
            SystemConfig(l2=bad_l2, page_bytes=4096)

    def test_min_active_chunks(self):
        with pytest.raises(ValueError):
            SystemConfig(max_active_chunks_per_core=0)

    def test_bad_cache_geometry(self):
        bad = CacheConfig(size_bytes=1000, assoc=3, line_bytes=32,
                          round_trip_cycles=2, mshr_entries=8)
        with pytest.raises(ValueError):
            bad.n_sets


class TestDerived:
    def test_mesh_shapes(self):
        assert SystemConfig(n_cores=64).mesh_shape == (8, 8)
        assert SystemConfig(n_cores=32).mesh_shape == (4, 8)
        assert SystemConfig(n_cores=16).mesh_shape == (4, 4)

    def test_one_directory_per_tile(self):
        assert SystemConfig(n_cores=36).n_directories == 36

    def test_with_override(self):
        c = SystemConfig().with_(n_cores=16, oci=False)
        assert c.n_cores == 16 and not c.oci
        assert SystemConfig().oci  # original untouched (frozen)

    def test_table2_config_passthrough(self):
        c = table2_config(32, protocol=ProtocolKind.SEQ, oci=False)
        assert c.protocol is ProtocolKind.SEQ and not c.oci


class TestFingerprint:
    def test_table2_config_hashes_pinned(self):
        """Stored records (paperbench/expected.json, sweep caches, the
        result store) are keyed by these hashes: dropping a config field
        without adding it to provenance._RETIRED_FIELDS breaks every key."""
        assert config_hash(TABLE2_CONFIGS[32]) == "0e7ecee3685b"
        assert config_hash(TABLE2_CONFIGS[64]) == "7ccd1fd5b66d"
