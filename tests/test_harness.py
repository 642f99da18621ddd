"""Tests for the runner, the figure functions and the markdown renderer,
on a small real sweep."""

import pytest

from repro.config import ProtocolKind
from repro.harness import figures, sweep
from repro.harness.runner import RunResult, run_app

SMALL = dict(n_cores=4, chunks_per_partition=1)
SB = ProtocolKind.SCALABLEBULK


@pytest.fixture(scope="module")
def records():
    return sweep.collect(["LU", "Radix"], [4], 1, log=lambda _msg: None)


@pytest.fixture(scope="module")
def markdown(records):
    return figures.render_markdown(records, ["LU", "Radix"], [4], 1)


def section(md: str, title: str) -> str:
    """The lines of one figure's section of the rendered markdown."""
    start = md.index(f"### {title} ")
    end = md.find("### ", start + 1)
    return md[start:end if end >= 0 else len(md)]


class TestRunApp:
    def test_returns_result(self):
        r = run_app("LU", **SMALL)
        assert isinstance(r, RunResult)
        assert r.chunks_committed == 4
        assert r.total_cycles > 0

    def test_breakdown_sums_to_one(self):
        r = run_app("LU", **SMALL)
        assert sum(r.breakdown_fractions().values()) == pytest.approx(1.0)

    def test_speedup_and_normalized_inverse(self):
        r = run_app("LU", **SMALL)
        assert r.speedup(r.total_cycles * 2) == pytest.approx(2.0)
        assert r.normalized_time(r.total_cycles) == pytest.approx(1.0)

    def test_active_cores_subset(self):
        r = run_app("LU", n_cores=4, active_cores=1, chunks_per_partition=1)
        assert r.chunks_committed == 4  # all partitions on one core

    def test_deterministic_across_runs(self):
        a = run_app("FFT", **SMALL)
        b = run_app("FFT", **SMALL)
        assert a.total_cycles == b.total_cycles
        assert a.total_messages == b.total_messages

    def test_all_protocols_run(self):
        for proto in ProtocolKind:
            r = run_app("LU", protocol=proto, **SMALL)
            assert r.chunks_committed == 4, proto

    def test_keep_machine(self):
        r = run_app("LU", keep_machine=True, **SMALL)
        assert r.machine is not None
        assert r.machine.sim.quiescent()


class TestExperimentFunctions:
    def test_execution_time_figure(self, records):
        bar = figures.breakdown(records, "LU", 4, SB)
        assert bar["speedup"] > 0
        total = bar["useful"] + bar["miss"] + bar["commit"] + bar["squash"]
        assert total == pytest.approx(bar["norm"], rel=1e-6)

    def test_dirs_per_commit_rows(self, records):
        dirs, write, read_only = figures.dirs_per_commit(records, "Radix", 4)
        assert dirs >= write
        assert read_only >= 0

    def test_dirs_distribution_sums_to_100(self, records):
        dist = figures.dirs_distribution(records, "LU", 4)
        assert sum(dist.values()) == pytest.approx(100.0)

    def test_commit_latency_samples(self, records):
        _, samples = figures.commit_latency(records, ["LU"], 4, SB)
        assert samples == 4

    def test_bottleneck_and_queue(self, records):
        bn = figures.bottleneck_ratios(records, "LU", 4)
        assert ProtocolKind.TCC in bn
        q = figures.queue_lengths(records, "LU", 4)
        assert q[ProtocolKind.TCC] >= 0

    def test_traffic_counts(self, records):
        data = figures.traffic(records, "LU", 4)
        assert sum(data[ProtocolKind.TCC].values()) > 0


class TestRenderers:
    """Each markdown section prints the figure functions' values."""

    def test_render_breakdown(self, records, markdown):
        text = section(markdown, "Figure 7")
        bar = figures.breakdown(records, "LU", 4, SB)
        assert (f"| LU | 4 | ScalableBulk | {bar['norm']:.4f} | "
                f"{bar['speedup']:.1f} |") in text
        avg = figures.average_speedup(records, ["LU", "Radix"], 4, SB)
        assert f"* AVERAGE speedup, ScalableBulk @ 4p: **{avg:.1f}**" in text

    def test_render_dirs(self, records, markdown):
        dirs, write, read_only = figures.dirs_per_commit(records, "LU", 4)
        assert (f"| LU | 4 | {dirs:.2f} | {write:.2f} | {read_only:.2f} |"
                in section(markdown, "Figure 9"))

    def test_render_distribution(self, records, markdown):
        pct = figures.dirs_distribution(records, "LU", 4)
        row = " | ".join(f"{pct[c]:.0f}" for c in list(range(15)) + ["more"])
        assert f"| LU | {row} |" in section(markdown, "Figure 11")

    def test_render_commit_latency(self, records, markdown):
        mean, _ = figures.commit_latency(records, ["LU", "Radix"], 4, SB)
        assert (f"| ScalableBulk | {mean:.0f} | 91 |"
                in section(markdown, "Figure 13"))

    def test_render_ratio_table(self, records, markdown):
        ratios = figures.bottleneck_ratios(records, "LU", 4)
        row = " | ".join(f"{v:.2f}" for v in ratios.values())
        assert f"| LU | {row} |" in section(markdown, "Figure 14")
        queues = figures.queue_lengths(records, "LU", 4)
        row = " | ".join(f"{v:.2f}" for v in queues.values())
        assert f"| LU | {row} |" in section(markdown, "Figure 16")

    def test_normalize_traffic_to_tcc(self):
        data = {
            ProtocolKind.TCC: {"MemRd": 50, "SmallCMessage": 50,
                               "Other": 0},
            ProtocolKind.SCALABLEBULK: {"MemRd": 50, "SmallCMessage": 0,
                                        "Other": 0},
        }
        norm = figures.normalize_traffic(data)
        assert sum(norm[ProtocolKind.TCC].values()) == pytest.approx(100.0)
        assert sum(norm[ProtocolKind.SCALABLEBULK].values()) == \
            pytest.approx(50.0)

    def test_normalize_folds_other_into_reads(self):
        data = {ProtocolKind.TCC: {"MemRd": 50, "Other": 50}}
        norm = figures.normalize_traffic(data)
        assert norm[ProtocolKind.TCC]["MemRd"] == pytest.approx(100.0)

    def test_render_traffic(self, records, markdown):
        mix = figures.normalize_traffic(
            figures.traffic(records, "LU", 4))[ProtocolKind.TCC]
        assert f"| LU | TCC | {mix['MemRd']:.1f} |" in section(markdown,
                                                               "Figure 18")
