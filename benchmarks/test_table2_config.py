"""Table 2: the simulated system configuration."""

from repro.config import ProtocolKind, table2_config


def test_table2_defaults():
    config = table2_config(64)
    # Processor & interconnect
    assert config.n_cores == 64
    assert config.signature_bits == 2048
    assert config.max_active_chunks_per_core == 2
    assert config.chunk_size_instructions == 2000
    assert config.mesh_shape == (8, 8)          # 2D torus
    assert config.link_latency_cycles == 7
    assert config.protocol is ProtocolKind.SCALABLEBULK
    # Memory subsystem
    assert config.l1.size_bytes == 32 * 1024
    assert config.l1.assoc == 4
    assert config.l1.line_bytes == 32
    assert config.l1.round_trip_cycles == 2
    assert config.l1.mshr_entries == 8
    assert config.l2.size_bytes == 512 * 1024
    assert config.l2.assoc == 8
    assert config.l2.round_trip_cycles == 8
    assert config.l2.mshr_entries == 64
    assert config.memory_round_trip_cycles == 300

    print("\nTable 2 (simulated system configuration):")
    print(f"  cores                {config.n_cores} "
          f"({config.mesh_shape[0]}x{config.mesh_shape[1]} torus)")
    print(f"  signature            {config.signature_bits} bits, "
          f"{config.signature_banks} banks")
    print(f"  chunk size           {config.chunk_size_instructions} instr, "
          f"max {config.max_active_chunks_per_core} active")
    print(f"  link latency         {config.link_latency_cycles} cycles")
    print(f"  L1                   {config.l1.size_bytes//1024}KB/"
          f"{config.l1.assoc}-way/{config.l1.line_bytes}B, "
          f"{config.l1.round_trip_cycles}cy")
    print(f"  L2                   {config.l2.size_bytes//1024}KB/"
          f"{config.l2.assoc}-way/{config.l2.line_bytes}B, "
          f"{config.l2.round_trip_cycles}cy")
    print(f"  memory round trip    {config.memory_round_trip_cycles} cycles")


def test_32_core_torus_shape():
    config = table2_config(32)
    assert config.mesh_shape == (4, 8)
