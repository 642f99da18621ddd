"""Tests for the host-time self-profiler (repro.obs.profile)."""

import io
import json

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine, run_app
from repro.obs.metrics import MetricsRegistry, MetricsStream
from repro.obs.profile import (
    DIR_HANDLER,
    ENGINE_DISPATCH,
    HOT_SCOPES,
    NOC_TRANSIT,
    OTHER,
    SCHEMA,
    HostProfiler,
    aggregate_profiles,
    attach_profiler,
    make_profiler,
    render_share_line,
)


class FakeClock:
    """A deterministic host clock the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture
def clocked():
    clock = FakeClock()
    return HostProfiler(_clock=clock), clock


class TestScopeAccounting:
    def test_nested_scopes_split_self_time(self, clocked):
        prof, clock = clocked
        prof.start()
        clock.now = 10
        prof.enter("a")
        clock.now = 20
        prof.enter("b")
        clock.now = 50
        prof.exit()                      # b: total 30, self 30
        clock.now = 100
        prof.exit()                      # a: total 90, self 90-30=60
        clock.now = 200
        prof.stop()

        a, b = prof.scopes["a"], prof.scopes["b"]
        assert (a.count, a.total_ns, a.self_ns) == (1, 90, 60)
        assert (b.count, b.total_ns, b.self_ns) == (1, 30, 30)
        assert prof.wall_ns == 200
        assert prof.edges[(None, "a")] == [1, 90]
        assert prof.edges[("a", "b")] == [1, 30]

    def test_repeat_entries_accumulate(self, clocked):
        prof, clock = clocked
        prof.start()
        for t0 in (0, 100, 200):
            clock.now = t0
            prof.enter("x")
            clock.now = t0 + 7
            prof.exit()
        stats = prof.scopes["x"]
        assert (stats.count, stats.total_ns, stats.self_ns) == (3, 21, 21)
        assert prof.edges[(None, "x")] == [3, 21]

    def test_start_is_first_call_wins(self, clocked):
        prof, clock = clocked
        clock.now = 5
        prof.start()
        clock.now = 50
        prof.start()                     # must not re-anchor
        clock.now = 105
        assert prof.wall_ns == 100

    def test_exit_dispatch_drives_metrics_snapshots(self):
        clock = FakeClock()
        sink = io.StringIO()
        stream = MetricsStream(sink, 100, registry=MetricsRegistry())
        prof = HostProfiler(stream=stream, _clock=clock)
        prof.start()
        prof.enter(ENGINE_DISPATCH)
        prof.exit_dispatch(50)           # below the boundary: no snapshot
        assert stream.snapshots_written == 0
        prof.enter(ENGINE_DISPATCH)
        clock.now = 1_000
        prof.exit_dispatch(150)          # crossed 100: snapshot
        assert stream.snapshots_written == 1
        assert stream.next_time == 200
        prof.stop(sim_time=150)          # close() flushes the final one
        assert stream.snapshots_written == 2


class TestReport:
    def _profiled(self):
        clock = FakeClock()
        prof = HostProfiler(provenance={"git_rev": "abc123"}, _clock=clock)
        prof.start()
        clock.now = 0
        prof.enter(ENGINE_DISPATCH)
        clock.now = 10
        prof.enter(DIR_HANDLER)
        clock.now = 20
        prof.enter(NOC_TRANSIT)
        clock.now = 30
        prof.exit()
        clock.now = 50
        prof.exit()
        clock.now = 60
        prof.exit()
        clock.now = 100
        prof.stop()
        return prof

    def test_shares_sum_to_100(self):
        shares = self._profiled().report().shares()
        assert OTHER in shares
        assert sum(shares.values()) == pytest.approx(100.0)
        assert all(v >= 0 for v in shares.values())

    def test_render_mentions_every_scope_once(self):
        text = self._profiled().report().render()
        for name in (ENGINE_DISPATCH, DIR_HANDLER, NOC_TRANSIT, OTHER):
            assert name in text
        assert "wall" in text

    def test_to_json_schema_and_provenance(self):
        doc = self._profiled().report().to_json()
        assert doc["schema"] == SCHEMA
        assert doc["git_rev"] == "abc123"
        assert doc["wall_ns"] == 100
        assert set(doc["scopes"]) == {ENGINE_DISPATCH, DIR_HANDLER,
                                      NOC_TRANSIT}
        json.dumps(doc)                  # serializable as-is
        # edges are [parent, child, count, total_ns] rows
        assert [None, ENGINE_DISPATCH, 1, 60] in doc["edges"]

    def test_aggregate_profiles_sums_and_renormalizes(self):
        doc = self._profiled().report().to_json()
        merged = aggregate_profiles([doc, doc])
        assert merged["runs"] == 2
        assert merged["wall_ns"] == 200
        assert merged["scopes"][DIR_HANDLER]["count"] == 2
        assert sum(merged["shares"].values()) == pytest.approx(100.0)

    def test_render_share_line_biggest_first(self):
        line = render_share_line({"a": 5.0, "b": 40.0, OTHER: 55.0})
        assert line.index("b 40.0%") < line.index("a 5.0%")
        assert line.endswith(f"{OTHER} 55.0%")


def _machine(protocol=ProtocolKind.SCALABLEBULK):
    specs = {0: [ChunkSpec(150, [ChunkAccess(1, 32 * 128 * 50 + 32 * i, True)])
                 for i in range(2)]}
    remaining = {c: list(s) for c, s in specs.items()}
    config = SystemConfig(n_cores=4, seed=3, protocol=protocol)
    return Machine(config, next_spec=lambda c: (
        remaining.get(c).pop(0) if remaining.get(c) else None))


class TestAttachment:
    def test_attach_profiler_populates_hot_scopes(self):
        machine = _machine()
        prof = attach_profiler(machine)
        machine.run()
        prof.stop(machine.sim.now)
        assert ENGINE_DISPATCH in prof.scopes
        assert prof.scopes[ENGINE_DISPATCH].count > 0
        assert set(prof.scopes) <= set(HOT_SCOPES)
        assert sum(prof.report().shares().values()) == pytest.approx(100.0)

    @pytest.mark.parametrize("proto", list(ProtocolKind))
    def test_profiled_run_result_is_identical(self, proto):
        base = run_app("Radix", n_cores=4, protocol=proto,
                       chunks_per_partition=2)
        profiled = run_app("Radix", n_cores=4, protocol=proto,
                           chunks_per_partition=2, profile=True)
        assert profiled == base

    def test_make_profiler_stamps_provenance_and_stream(self):
        config = SystemConfig(n_cores=4)
        prof = make_profiler(config, metrics_interval=500)
        assert "config_hash" in prof.provenance
        assert prof.stream is not None
        assert prof.stream.interval == 500
        assert make_profiler(config).stream is None


class TestHostileScopeBalance:
    """Raising hot paths must leave the profiler stack balanced.

    Every profiled scope (sig.*, noc.transit, engine.dispatch) wraps its
    body in try/finally; if one leaked on an exception, every later scope
    would be mis-attributed to a phantom parent for the rest of the run."""

    def _profiled_factory(self):
        from repro.signatures.bulk_signature import SignatureFactory

        prof = HostProfiler()
        prof.start()
        factory = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
        factory.profiler = prof
        return factory, prof

    def test_sig_ops_raising_keep_stack_balanced(self):
        from repro.signatures.bulk_signature import SignatureFactory

        factory, prof = self._profiled_factory()
        alien = SignatureFactory(total_bits=2048, n_banks=4, seed=999)
        alien.profiler = prof
        a = factory.from_lines([1, 2, 3])
        b = alien.from_lines([4])
        with pytest.raises(ValueError):
            a.intersects(b)
        assert prof._stack == []
        with pytest.raises(ValueError):
            a.union_update(b)
        assert prof._stack == []
        # scopes still accumulate correctly after the hostile calls
        a.insert(9)
        assert a.contains(9)
        assert prof._stack == []
        assert prof.scopes["sig.insert"].count >= 1

    def test_raising_callback_keeps_dispatch_scope_balanced(self):
        from repro.engine.events import Simulator

        sim = Simulator()
        prof = HostProfiler()
        prof.start()
        sim.profiler = prof
        fired = []
        sim.schedule(0, lambda: fired.append("ok"))
        sim.schedule(0, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        sim.schedule(1, lambda: fired.append("later"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert prof._stack == []
        sim.run()  # the queue survives and the scope re-opens cleanly
        assert fired == ["ok", "later"]
        assert prof._stack == []
        assert prof.scopes[ENGINE_DISPATCH].count == 3
