"""Tests for the terminal chart renderers."""

import pytest

from repro.config import ProtocolKind
from repro.harness import figures
from repro.harness.ascii_plots import (
    distribution_plot, grouped_bars, hbar_chart, stacked_bars,
)
from repro.harness.sweep import key_of


class TestHbar:
    def test_bars_scale_to_max(self):
        text = hbar_chart({"a": 10, "b": 5}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title_and_unit(self):
        text = hbar_chart({"x": 1}, title="T", unit="cy")
        assert text.startswith("T")
        assert "1cy" in text

    def test_empty(self):
        assert "(no data)" in hbar_chart({})

    def test_zero_values(self):
        text = hbar_chart({"a": 0.0})
        assert "#" not in text


class TestStacked:
    def test_segments_use_distinct_chars(self):
        text = stacked_bars(["r1"], {"s1": [1.0], "s2": [1.0]}, width=10)
        body = text.splitlines()[-1]
        assert "#" in body and "=" in body

    def test_legend_lists_segments(self):
        text = stacked_bars(["r"], {"alpha": [1], "beta": [1]})
        assert "#=alpha" in text and "=beta" in text.replace("#=alpha", "")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            stacked_bars(["a", "b"], {"s": [1.0]})

    def test_totals_annotated(self):
        text = stacked_bars(["r"], {"s": [2.0], "t": [3.0]})
        assert "5" in text


class TestGroupedAndDistribution:
    def test_grouped_rows(self):
        text = grouped_bars(["app"], {"write": [3.0], "read": [1.0]})
        assert "write" in text and "read" in text

    def test_distribution_order_preserved(self):
        text = distribution_plot({0: 10.0, 1: 50.0, "more": 40.0})
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("0")
        assert "more" in lines[-1]

    def test_distribution_empty(self):
        assert "(no data)" in distribution_plot({})


class TestBreakdownChart:
    def test_from_bars(self):
        """Figs. 7/8 as a stacked chart of one record's breakdown bar."""
        cell = {"total_cycles": 100, "useful": 70, "miss": 20, "commit": 5,
                "squash": 5}
        records = {key_of("LU", 4, "ScalableBulk", 4): cell,
                   key_of("LU", 4, "baseline1p", 1): {"total_cycles": 1000}}
        bar = figures.breakdown(records, "LU", 4, ProtocolKind.SCALABLEBULK)
        parts = {"Useful": "useful", "Cache Miss": "miss",
                 "Commit": "commit", "Squash": "squash"}
        text = stacked_bars(["LU_4 ScalableBulk"],
                            {name: [bar[k]] for name, k in parts.items()},
                            title="Fig7")
        assert "Fig7" in text
        assert "LU_4 ScalableBulk" in text
        assert "#=Useful" in text
        assert text.splitlines()[-1].endswith("| 0.1")  # normalized time
