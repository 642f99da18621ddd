"""Focused tests for the figure functions and the markdown they render,
on hand-built records with known numbers (no simulation)."""

import pytest

from repro.config import ProtocolKind
from repro.harness import figures
from repro.harness.sweep import PROTOCOLS, key_of

SB = ProtocolKind.SCALABLEBULK


def fake_record(**fields):
    rec = {
        "total_cycles": 1000, "useful": 700, "miss": 200, "commit": 50,
        "squash": 50, "mean_dirs": 1.0, "mean_write_dirs": 1.0,
        "dirs_hist": {"1": 4}, "latency_hist": {"100": 4},
        "bottleneck_ratio": 1.0, "mean_queue": 0.0,
        "traffic": {"MemRd": 10}, "chunks_committed": 4,
        "squashes_conflict": 0, "squashes_alias": 0,
    }
    rec.update(fields)
    return rec


def fake_sweep(apps=("LU",), n_cores=4, base_cycles=20000, **per_protocol):
    """A one-machine sweep: every protocol per app plus its 1p baseline.

    ``per_protocol`` maps a protocol value to that cell's field overrides.
    """
    records = {}
    for app in apps:
        records[key_of(app, n_cores, "baseline1p", 1)] = fake_record(
            total_cycles=base_cycles)
        for proto in PROTOCOLS:
            records[key_of(app, n_cores, proto.value, n_cores)] = fake_record(
                **per_protocol.get(proto.value, {}))
    return records


class TestBreakdownRendering:
    def test_rows_and_averages(self):
        records = fake_sweep()
        md = figures.render_markdown(records, ["LU"], [4], 1)
        fig7 = md[md.index("### Figure 7"):md.index("### Figure 9")]
        assert fig7.count("| LU | 4 |") == len(PROTOCOLS)
        # 1p baseline 20000 cycles / 1000 cycles
        assert "| LU | 4 | ScalableBulk | 0.0500 | 20.0 |" in fig7
        assert "* AVERAGE speedup, ScalableBulk @ 4p: **20.0**" in fig7

    def test_figure_helpers(self):
        records = fake_sweep(("LU", "FFT"), base_cycles=30000)
        records[key_of("LU", 4, SB.value, 4)]["total_cycles"] = 3000
        assert figures.average_speedup(records, ["LU", "FFT"], 4, SB) == 20
        with pytest.raises(KeyError):
            figures.breakdown(records, "Radix", 4, SB)

    def test_commit_fraction_average(self):
        frac = figures.average_commit_fraction(fake_sweep(), ["LU"], 4, SB)
        assert frac == pytest.approx(0.05)


class TestOtherRenderers:
    def test_dirs_rows(self):
        records = fake_sweep(("Radix",), 64, ScalableBulk={
            "mean_dirs": 11.5, "mean_write_dirs": 10.9})
        dirs, write, read_only = figures.dirs_per_commit(records, "Radix", 64)
        assert (dirs, write) == (11.5, 10.9)
        assert read_only == pytest.approx(0.6)
        md = figures.render_markdown(records, ["Radix"], [64], 1)
        assert "| Radix | 64 | 11.50 | 10.90 | 0.60 |" in md

    def test_distribution_columns(self):
        records = fake_sweep(ScalableBulk={
            "dirs_hist": {"0": 2, "1": 1, "20": 1}})
        dist = figures.dirs_distribution(records, "LU", 4, upper=1)
        assert dist == {0: 50.0, 1: 25.0, "more": 25.0}

    def test_latency_histogram_bars(self):
        records = fake_sweep(SEQ={"latency_hist": {"100": 10, "900": 1}})
        mean, samples = figures.commit_latency(records, ["LU"], 4,
                                               ProtocolKind.SEQ)
        assert samples == 11
        assert mean == pytest.approx(1900 / 11)

    def test_latency_empty(self):
        records = fake_sweep(SEQ={"latency_hist": {}})
        assert figures.commit_latency(records, ["LU"], 4,
                                      ProtocolKind.SEQ) == (0.0, 0)
        md = figures.render_markdown(records, ["LU"], [4], 1)
        assert "| SEQ | 0 | 153 |" in md

    def test_traffic_normalization_order(self):
        records = fake_sweep(TCC={
            "traffic": {k: 10 for k in figures.TRAFFIC_ORDER}})
        md = figures.render_markdown(records, ["LU"], [4], 1)
        assert "| LU | TCC | 20.0 | 20.0 | 20.0 | 20.0 | 20.0 | 100.0 |" in md

    def test_normalize_without_tcc_self_normalizes(self):
        data = {ProtocolKind.SCALABLEBULK: {"MemRd": 10, "Other": 0}}
        norm = figures.normalize_traffic(data)
        assert sum(norm[ProtocolKind.SCALABLEBULK].values()) == \
            pytest.approx(100.0)

    def test_normalize_empty_counts(self):
        data = {ProtocolKind.TCC: {}}
        norm = figures.normalize_traffic(data)
        assert sum(norm[ProtocolKind.TCC].values()) == 0.0

    def test_squash_rates(self):
        records = fake_sweep(("LU", "FFT"), ScalableBulk={
            "chunks_committed": 50, "squashes_conflict": 1,
            "squashes_alias": 2})
        # pooled over both apps: 2 and 4 squashes in 100 chunks
        assert figures.squash_rates(records, ["LU", "FFT"], 4) == (2.0, 4.0)
