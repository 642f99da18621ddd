"""Tests for the base directory module: read-miss service and state.

Driven over the real NoC via the ProtocolBench stub cores.
"""

import gc

import pytest

from repro.config import SystemConfig
from repro.harness.runner import Machine, SimulationRunner
from repro.memory.directory import LineInfo
from repro.network.message import MessageType, core_node, dir_node
from protocol_bench import ProtocolBench


@pytest.fixture
def bench():
    return ProtocolBench(n_cores=9)


def read(bench, line, requester):
    home = bench.page_mapper.lookup(
        line * bench.config.line_bytes // bench.config.page_bytes)
    bench.network.unicast(MessageType.READ_REQ, core_node(requester),
                          dir_node(home), line=line, requester=requester)
    bench.run()
    return [m for m in bench.core_log[requester]
            if m.mtype in (MessageType.DATA_FROM_MEM,
                           MessageType.DATA_FROM_SHARER,
                           MessageType.DATA_FROM_OWNER,
                           MessageType.READ_NACK)]


class TestReadService:
    def test_cold_line_fetched_from_memory(self, bench):
        line = bench.line_homed_at(3)
        replies = read(bench, line, requester=1)
        assert [m.mtype for m in replies] == [MessageType.DATA_FROM_MEM]
        # memory latency dominates the round trip
        assert replies[0].sent_at >= bench.config.memory_round_trip_cycles

    def test_requester_registered_as_sharer(self, bench):
        line = bench.line_homed_at(3)
        read(bench, line, requester=1)
        assert 1 in bench.directories[3].lines[line].sharers

    def test_clean_remote_copy_forwarded(self, bench):
        line = bench.line_homed_at(3)
        bench.add_sharer(line, proc=5)
        replies = read(bench, line, requester=1)
        assert [m.mtype for m in replies] == [MessageType.DATA_FROM_SHARER]

    def test_dirty_owner_forwarded(self, bench):
        line = bench.line_homed_at(3)
        info = bench.directories[3].lines.setdefault(line, LineInfo())
        info.owner = 5
        info.sharers.add(5)
        replies = read(bench, line, requester=1)
        assert [m.mtype for m in replies] == [MessageType.DATA_FROM_OWNER]

    def test_own_dirty_copy_not_forwarded_to_self(self, bench):
        line = bench.line_homed_at(3)
        info = bench.directories[3].lines.setdefault(line, LineInfo())
        info.owner = 1
        info.sharers.add(1)
        replies = read(bench, line, requester=1)
        # the requester already owns it: memory path (degenerate re-fetch)
        assert replies[0].mtype is MessageType.DATA_FROM_MEM

    def test_closest_sharer_chosen(self, bench):
        line = bench.line_homed_at(4)
        bench.add_sharer(line, proc=8)   # far corner
        bench.add_sharer(line, proc=1)   # adjacent to requester 0
        read(bench, line, requester=0)
        fwd = [dst for t, dst, m in bench.wire_log
               if m.mtype is MessageType.FWD_READ]
        # FWD went to a core stub; check it targeted core 1
        fwd_msgs = [m for t, dst, m in bench.wire_log
                    if m.mtype is MessageType.FWD_READ]
        assert fwd_msgs and fwd_msgs[0].dst == core_node(1)


class TestWriteback:
    def test_writeback_clears_owner(self, bench):
        line = bench.line_homed_at(3)
        info = bench.directories[3].lines.setdefault(line, LineInfo())
        info.owner = 5
        info.sharers.add(5)
        bench.network.unicast(MessageType.WRITEBACK, core_node(5),
                              dir_node(3), line=line, writer=5)
        bench.run()
        assert info.owner is None
        assert 5 not in info.sharers

    def test_writeback_from_non_owner_keeps_owner(self, bench):
        line = bench.line_homed_at(3)
        info = bench.directories[3].lines.setdefault(line, LineInfo())
        info.owner = 5
        info.sharers.update({5, 6})
        bench.network.unicast(MessageType.WRITEBACK, core_node(6),
                              dir_node(3), line=line, writer=6)
        bench.run()
        assert info.owner == 5
        assert 6 not in info.sharers


class TestCommitStateHelpers:
    def test_sharers_to_invalidate_excludes_writer(self, bench):
        line = bench.line_homed_at(2)
        bench.add_sharer(line, 0)
        bench.add_sharer(line, 4)
        victims = bench.directories[2].sharers_to_invalidate([line], writer=0)
        assert victims == {4}

    def test_sharers_to_invalidate_includes_old_owner(self, bench):
        line = bench.line_homed_at(2)
        info = bench.directories[2].lines.setdefault(line, LineInfo())
        info.owner = 7
        victims = bench.directories[2].sharers_to_invalidate([line], writer=0)
        assert victims == {7}

    def test_apply_commit_sets_owner(self, bench):
        line = bench.line_homed_at(2)
        bench.add_sharer(line, 4)
        bench.directories[2].apply_commit([line], writer=0)
        info = bench.directories[2].lines[line]
        assert info.owner == 0 and info.sharers == {0}

    def test_unknown_lines_ignored(self, bench):
        assert bench.directories[2].sharers_to_invalidate([999999], 0) == set()


# ----------------------------------------------------------------------
# Lazy prewarm registration
# ----------------------------------------------------------------------
#: core ids that share one slot of a set's initial 8-entry table, listed
#: out of sorted order; eight of them also force a table resize
COLLIDING = (27, 19, 11, 3, 35, 51, 43, 59)


class _PlanWorkload:
    """A fixed prewarm plan over premapped pages, and no chunks."""

    def __init__(self, homes, runs):
        self.homes = homes
        self.runs = runs

    def premap_pages(self, mapper):
        for page, home in self.homes.items():
            mapper.premap(page, home)

    def prewarm_runs(self):
        return iter(self.runs)

    def next_spec(self, core_id):
        return None


def eager_tables(machine, runs):
    """Reference: the line tables eager registration built, one LineInfo
    per line with its sharers added in plan order."""
    lpp = machine.config.lines_per_page
    tables = {d.dir_id: {} for d in machine.directories}
    for core, start, count in runs:
        for addr in range(start, start + count):
            home = machine.page_mapper.lookup(addr // lpp)
            if home is None:
                continue
            info = tables[home].get(addr)
            if info is None:
                tables[home][addr] = LineInfo({core})
            else:
                info.sharers.add(core)
    return tables


@pytest.fixture
def planned():
    config = SystemConfig(n_cores=64)
    lpp = config.lines_per_page
    # pages 10 and 13 at directory 1, page 11 at 2, page 12 unmapped
    homes = {10: 1, 11: 2, 13: 1}
    edge = 11 * lpp - 2                # two lines before the 10|11 boundary
    runs = [(c, edge, 4) for c in COLLIDING[:4]]
    runs += [(27, edge, 4), (3, edge + 1, 1), (19, edge, 4)]  # repeats
    runs += [(c, edge + 1, 2) for c in COLLIDING[4:]]
    runs += [(5, 12 * lpp - 1, 2),     # runs into the unmapped page
             (5, 13 * lpp, 3), (6, 13 * lpp + 1, 1)]
    machine = Machine(config, workload=_PlanWorkload(homes, runs))
    return machine, runs


class TestLazyPrewarm:
    def test_materialized_sharers_iterate_in_eager_order(self, planned):
        machine, runs = planned
        assert machine.prewarm() == sum(count for _, _, count in runs)
        reference = eager_tables(machine, runs)
        # the plan must produce sets whose order is not the sorted order,
        # or a materialization that sorts would pass unnoticed
        assert any(list(info.sharers) != sorted(info.sharers)
                   for table in reference.values() for info in table.values())
        for d in machine.directories:
            for addr, ref in reference[d.dir_id].items():
                info = d.entry(addr)
                assert list(info.sharers) == list(ref.sharers), addr
                assert info.owner is None
        lpp = machine.config.lines_per_page
        assert machine.directories[1].entry(12 * lpp) is None
        assert machine.directories[1].entry(12 * lpp - 3) is None

    def test_home_lines_sees_untouched_prewarmed_lines(self, planned):
        machine, runs = planned
        machine.prewarm()
        reference = eager_tables(machine, runs)
        candidates = sorted({a for _, s, n in runs for a in range(s, s + n)})
        for d in machine.directories:
            assert d.home_lines(candidates) == sorted(reference[d.dir_id])
            assert not d.lines  # a membership query materializes nothing

    def test_commit_state_reads_prewarmed_sharers(self, planned):
        machine, _ = planned
        machine.prewarm()
        d = machine.directories[1]
        lpp = machine.config.lines_per_page
        line = 13 * lpp + 1
        assert d.sharers_to_invalidate([line], writer=5) == {6}
        d.apply_commit([line], writer=6)
        info = d.entry(line)
        assert info.owner == 6 and info.sharers == {6}
        assert d.entry_or_new(line) is info
        fresh = d.entry_or_new(13 * lpp + 9)
        assert fresh.owner is None and not fresh.sharers

    def test_prewarm_state_is_not_tracked_by_the_collector(self):
        config = SystemConfig(n_cores=16, seed=3)
        runner = SimulationRunner("Radix", config, chunks_per_partition=1)
        machine = Machine(config, workload=runner.workload)
        assert machine.prewarm() > 0
        gc.collect()
        assert any(d._prewarmed for d in machine.directories)
        for d in machine.directories:
            assert not d.lines
            assert not gc.is_tracked(d._prewarmed)
