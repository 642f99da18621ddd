"""Tests for the full-sweep module (collection, caching, rendering)."""

import json

import pytest

from repro.config import ProtocolKind
from repro.harness import figures, sweep


class TestRunOne:
    def test_record_fields(self):
        rec = sweep.run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1)
        for field in ("total_cycles", "mean_commit_latency", "dirs_hist",
                      "latency_hist", "traffic", "mean_dirs"):
            assert field in rec
        assert rec["chunks_committed"] == 4

    def test_baseline_uses_one_core(self):
        rec = sweep.run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1,
                            active_cores=1)
        assert rec["active_cores"] == 1
        assert rec["chunks_committed"] == 4  # all partitions on core 0


class TestCollectCaching:
    def test_collect_writes_and_reuses_cache(self, tmp_path):
        cache = tmp_path / "sweep.json"
        logs = []
        records = sweep.collect(["LU"], [4], 1, cache_path=cache,
                                log=logs.append)
        assert cache.exists()
        n_runs_first = len(records)
        # second collection must not rerun anything (pure cache hits)
        logs2 = []
        records2 = sweep.collect(["LU"], [4], 1, cache_path=cache,
                                 log=logs2.append)
        assert len(records2) == n_runs_first
        reloaded = json.loads(cache.read_text())
        assert set(reloaded) == set(records2)

    def test_collect_runs_matrix(self, tmp_path):
        records = sweep.collect(["LU"], [4], 1,
                                cache_path=tmp_path / "s.json",
                                log=lambda *a: None)
        # 1 baseline + 4 protocols
        assert len(records) == 5


class TestAtomicSave:
    def test_atomic_write_replaces_and_cleans_up(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("old")
        sweep.atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no temp file left

    def test_failed_write_leaves_previous_checkpoint_intact(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "cache.json"
        path.write_text('{"good": "checkpoint"}')

        def explode(_src, _dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(sweep.os, "replace", explode)
        with pytest.raises(OSError):
            sweep.atomic_write_text(path, "half-written garbage")
        # the old checkpoint survives and the temp file is gone
        assert path.read_text() == '{"good": "checkpoint"}'
        assert list(tmp_path.iterdir()) == [path]


class TestSeedOverride:
    def test_run_one_seed_lands_in_config_and_record(self):
        rec = sweep.run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1,
                            seed=1234)
        assert rec["seed"] == 1234
        default = sweep.run_one("LU", 4, ProtocolKind.SCALABLEBULK,
                                chunks=1)
        assert default["seed"] != 1234  # Table 2 default preserved
        assert rec["config_hash"] != default["config_hash"]


class TestRendering:
    @pytest.fixture
    def records(self, tmp_path):
        return sweep.collect(["LU", "Radix"], [4], 1,
                             cache_path=tmp_path / "s.json",
                             log=lambda *a: None)

    def test_markdown_contains_all_figures(self, records):
        md = figures.render_markdown(records, ["LU", "Radix"], [4], 1)
        for fig in ("Figure 7", "Figure 9", "Figure 11", "Figure 13",
                    "Figure 14", "Figure 16", "Figure 18"):
            assert fig in md, fig
        assert "Radix" in md and "LU" in md
        assert "ScalableBulk" in md

    def test_markdown_has_paper_reference_latencies(self, records):
        md = figures.render_markdown(records, ["LU", "Radix"], [4], 1)
        assert "2954" in md  # the paper's BulkSC 64p mean

    def test_main_cli(self, tmp_path):
        md_path = tmp_path / "exp.md"
        rc = sweep.main(["--apps", "LU", "--cores", "4", "--chunks", "1",
                         "--json", str(tmp_path / "s.json"),
                         "--markdown", str(md_path)])
        assert rc == 0
        assert "Figure 13" in md_path.read_text()
