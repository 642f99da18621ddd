"""Tests for the benchmark harness (repro.harness.bench)."""

import copy
import json
from pathlib import Path

import pytest

from repro.harness import bench

ROOT = Path(__file__).resolve().parent.parent


def _valid_doc(calibration=1_000_000.0, jobs=1, cpus=4):
    """A minimal schema-valid document for validator/comparator tests."""
    return {
        "schema": bench.SCHEMA,
        "date": "2026-08-05",
        "host": {"python": "3.11.7", "platform": "test", "cpus": cpus},
        "config": {"quick": True, "jobs": jobs, "repeat": 1},
        "calibration_ops_per_sec": calibration,
        "micro": {
            "signature_insert": {"ops": 1000, "seconds": 0.01,
                                 "ops_per_sec": 100_000.0},
        },
        "macro": {
            "LU/4/ScalableBulk": {"app": "LU", "protocol": "ScalableBulk",
                                  "n_cores": 4, "chunks": 1,
                                  "wall_seconds": 0.5, "total_cycles": 5000,
                                  "chunks_committed": 4,
                                  "cycles_per_sec": 10_000.0},
        },
    }


class TestValidate:
    def test_valid_document_passes(self):
        assert bench.validate_bench(_valid_doc()) == []

    def test_non_dict_rejected(self):
        assert bench.validate_bench([1, 2]) == ["document is not a JSON object"]

    def test_wrong_schema_rejected(self):
        doc = _valid_doc()
        doc["schema"] = "repro-bench-v0"
        assert any("schema" in e for e in bench.validate_bench(doc))

    @pytest.mark.parametrize("section", ["micro", "macro"])
    def test_empty_sections_rejected(self, section):
        doc = _valid_doc()
        doc[section] = {}
        assert any(section in e for e in bench.validate_bench(doc))

    def test_missing_calibration_rejected(self):
        doc = _valid_doc()
        del doc["calibration_ops_per_sec"]
        assert any("calibration" in e for e in bench.validate_bench(doc))

    def test_nonpositive_throughput_rejected(self):
        doc = _valid_doc()
        doc["micro"]["signature_insert"]["ops_per_sec"] = 0
        assert any("non-positive" in e for e in bench.validate_bench(doc))

    def test_missing_macro_field_rejected(self):
        doc = _valid_doc()
        del doc["macro"]["LU/4/ScalableBulk"]["cycles_per_sec"]
        assert any("cycles_per_sec" in e for e in bench.validate_bench(doc))


def _profile_section(share_a=30.0, share_other=70.0):
    return {
        "schema": "repro-profile-v1",
        "wall_ns": 1_000_000,
        "scopes": {"engine.dispatch": {"count": 10, "total_ns": 300_000,
                                       "self_ns": 300_000}},
        "shares": {"engine.dispatch": share_a, "other": share_other},
    }


class TestValidateProfile:
    def test_valid_section_passes(self):
        assert bench._validate_profile(_profile_section()) == []

    def test_non_object_and_missing_shares(self):
        assert bench._validate_profile("nope") == ["not an object"]
        assert bench._validate_profile({}) == ["shares missing or empty"]

    def test_shares_off_100_rejected(self):
        bad = _profile_section(share_a=30.0, share_other=50.0)  # sums to 80
        assert any("expected 100" in e for e in bench._validate_profile(bad))

    def test_negative_share_rejected(self):
        bad = _profile_section(share_a=-5.0, share_other=105.0)
        assert any("negative" in e for e in bench._validate_profile(bad))

    def test_missing_scopes_rejected(self):
        bad = _profile_section()
        del bad["scopes"]
        assert any("scopes" in e for e in bench._validate_profile(bad))

    def test_validate_bench_checks_embedded_profiles(self):
        doc = _valid_doc()
        doc["profile"] = _profile_section(share_a=30.0, share_other=50.0)
        errors = bench.validate_bench(doc)
        assert any("profile" in e and "expected 100" in e for e in errors)
        doc["profile"] = _profile_section()
        doc["macro"]["LU/4/ScalableBulk"]["profile"] = _profile_section()
        assert bench.validate_bench(doc) == []


class TestCompare:
    def test_identical_documents_have_no_regressions(self):
        doc = _valid_doc()
        assert bench.compare_bench(doc, copy.deepcopy(doc)) == []

    def test_large_slowdown_flagged(self):
        old, new = _valid_doc(), _valid_doc()
        new["micro"]["signature_insert"]["ops_per_sec"] = 50_000.0  # -50%
        regressions = bench.compare_bench(old, new, threshold=0.20)
        assert len(regressions) == 1
        assert "micro/signature_insert" in regressions[0]

    def test_small_slowdown_within_threshold_passes(self):
        old, new = _valid_doc(), _valid_doc()
        new["micro"]["signature_insert"]["ops_per_sec"] = 90_000.0  # -10%
        assert bench.compare_bench(old, new, threshold=0.20) == []

    def test_calibration_normalization_cancels_host_speed(self):
        # New host is 2x faster (calibration doubled) and raw throughput
        # doubled too: normalized ratio unchanged -> no regression.
        old = _valid_doc(calibration=1_000_000.0)
        new = _valid_doc(calibration=2_000_000.0)
        new["micro"]["signature_insert"]["ops_per_sec"] = 200_000.0
        new["macro"]["LU/4/ScalableBulk"]["cycles_per_sec"] = 20_000.0
        assert bench.compare_bench(old, new, threshold=0.20) == []

    def test_same_raw_speed_on_faster_host_is_a_regression(self):
        # Host got 2x faster but the simulator did not: normalized
        # throughput halved -> regression.
        old = _valid_doc(calibration=1_000_000.0)
        new = _valid_doc(calibration=2_000_000.0)
        regressions = bench.compare_bench(old, new, threshold=0.20)
        assert len(regressions) == 2  # micro + macro both halved

    def test_speedup_is_never_a_regression(self):
        old, new = _valid_doc(), _valid_doc()
        new["micro"]["signature_insert"]["ops_per_sec"] = 1e9
        new["macro"]["LU/4/ScalableBulk"]["cycles_per_sec"] = 1e9
        assert bench.compare_bench(old, new) == []

    def test_only_shared_keys_compared(self):
        old, new = _valid_doc(), _valid_doc()
        old["micro"]["gone"] = {"ops": 1, "seconds": 1.0, "ops_per_sec": 1e12}
        new["micro"]["new"] = {"ops": 1, "seconds": 1.0, "ops_per_sec": 1.0}
        assert bench.compare_bench(old, new) == []


class TestMacroReliability:
    def test_jobs_within_cores_is_reliable(self):
        assert bench.macro_reliable(_valid_doc(jobs=2, cpus=4))

    def test_oversubscribed_run_is_unreliable(self):
        assert not bench.macro_reliable(_valid_doc(jobs=4, cpus=1))

    def test_oversubscribed_macro_slowdown_is_not_gated(self):
        # Wall-clock doubled because two workers shared one core; the
        # comparator must not blame the simulator for it.
        old = _valid_doc()
        new = _valid_doc(jobs=2, cpus=1)
        new["macro"]["LU/4/ScalableBulk"]["cycles_per_sec"] = 1_000.0
        assert bench.compare_bench(old, new, threshold=0.20) == []
        # ... but a micro regression in the same document still gates
        new["micro"]["signature_insert"]["ops_per_sec"] = 1_000.0
        assert len(bench.compare_bench(old, new, threshold=0.20)) == 1


class TestMicroBenches:
    @pytest.mark.parametrize("name", sorted(bench.MICRO_BENCHES))
    def test_micro_bench_reports_sane_numbers(self, name):
        result = bench.MICRO_BENCHES[name](512)
        assert result["ops"] >= 512
        assert result["seconds"] > 0
        assert result["ops_per_sec"] > 0

    def test_prewarm_counts_whole_machines(self):
        one = bench.MICRO_BENCHES["prewarm"](1)
        two = bench.MICRO_BENCHES["prewarm"](one["ops"] + 1)
        assert two["ops"] == 2 * one["ops"]

    def test_prewarm_is_not_gated_by_the_committed_baseline(self):
        # compare_bench gates shared names only, so a baseline recorded
        # before the prewarm bench existed still gates every other one
        committed = json.loads((ROOT / "BENCH_2026-08-08.json").read_text())
        assert "prewarm" not in committed["micro"]
        new = copy.deepcopy(committed)
        new["micro"]["prewarm"] = {"ops": 1, "seconds": 1.0,
                                   "ops_per_sec": 1.0}
        assert bench.compare_bench(committed, new) == []
        new["micro"]["noc_transit"]["ops_per_sec"] /= 2
        assert len(bench.compare_bench(committed, new)) == 1

    def test_run_micro_best_of_repeat(self):
        result = bench.run_micro("signature_insert", quick=True, repeat=2)
        assert result["best_of"] == 2
        assert result["ops"] == bench.MICRO_OPS["signature_insert"][1]


class TestMacroWorker:
    def test_worker_returns_plain_record(self):
        record = bench._macro_worker({"app": "LU", "n_cores": 4, "chunks": 1,
                                      "protocol": "ScalableBulk"})
        assert record["total_cycles"] > 0
        assert record["cycles_per_sec"] > 0
        assert record["chunks_committed"] == 4
        json.dumps(record)  # must be JSON-serializable as-is


class TestCli:
    def test_validate_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_valid_doc()))
        assert bench.main(["--validate-file", str(path)]) == 0
        path.write_text(json.dumps({"schema": "bad"}))
        assert bench.main(["--validate-file", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_check_regression_exit_codes(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(_valid_doc()))
        doc = _valid_doc()
        doc["micro"]["signature_insert"]["ops_per_sec"] = 10.0
        new.write_text(json.dumps(doc))
        assert bench.main(["--check-regression", str(old), str(old)]) == 0
        assert bench.main(["--check-regression", str(old), str(new)]) == 1
        assert "regression" in capsys.readouterr().out
        # a looser threshold lets the same pair pass
        assert bench.main(["--check-regression", str(old), str(new),
                           "--threshold", "1.0"]) == 0
