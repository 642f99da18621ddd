"""SB5xx static pass: state-access model, concurrency graph, rules, teeth."""

from repro.analysis import Baseline
from repro.analysis.findings import apply_pragmas, repo_paths
from repro.analysis.races import extract_state_model, lint_races
from repro.analysis.races.concurrency import build_concurrency_model
from repro.analysis.races.mutations import SOURCE_MUTATIONS, overrides_for

SB5_CODES = {"SB501", "SB502", "SB503", "SB504"}


def keys(findings):
    return {f.key for f in findings}


class TestStateModel:
    def test_scalablebulk_handlers_extracted(self):
        model = extract_state_model("scalablebulk")
        names = {c.name for c in model.handler_classes()}
        assert "ScalableBulkDirectory" in names
        assert "ScalableBulkEngine" in names

    def test_handler_footprints_are_transitive(self):
        """_on_g reaches _fail_group through _maybe_advance: the closed
        footprint must include the failure-path writes."""
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        on_g = next(h for h in sbdir.handlers.values() if h.method == "_on_g")
        assert "failed_cids" in on_g.writes
        assert "cst" in on_g.writes

    def test_counters_are_detected_and_separable(self):
        """`self.x += 1` attrs commute; the rules and the sanitizer exempt
        them by subtracting ``counters`` from ``attrs``."""
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        assert sbdir.counters, "expected commutative counters"
        assert "failed_cids" not in sbdir.counters
        assert sbdir.attrs - sbdir.counters

    def test_releasable_attrs_detected(self):
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        assert "failed_cids" in sbdir.releasable
        assert "reserved_for" in sbdir.releasable

    def test_dispatch_table_resolved(self):
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        assert sbdir.dispatch, "dispatch table should be non-empty"
        assert all(m in sbdir.methods for m in sbdir.dispatch.values())


class TestConcurrencyModel:
    def test_self_and_other_directory_instances_differ(self):
        """A directory's own commit_request and a predecessor's G are
        distinct causal sources; the model must not collapse them."""
        model = extract_state_model("scalablebulk")
        cm = build_concurrency_model(model)
        assert cm.may_interleave("ScalableBulkDirectory",
                                 "_on_commit_request", "_on_g")

    def test_directory_roles_split_into_instances(self):
        """Every reachable directory handler exists as both a local (L)
        and an other-instance (O) node in the causal graph."""
        model = extract_state_model("scalablebulk")
        cm = build_concurrency_model(model)
        local = {n[2] for n in cm.nodes
                 if n[0] == "L" and n[1] == "ScalableBulkDirectory"}
        other = {n[2] for n in cm.nodes
                 if n[0] == "O" and n[1] == "ScalableBulkDirectory"}
        assert local and other

    def test_reentrant_cycle_found_on_grab_ring(self):
        model = extract_state_model("scalablebulk")
        cm = build_concurrency_model(model)
        scc = cm.reentrant("ScalableBulkDirectory", "_on_bulk_inv_ack")
        assert scc is not None and len(scc) >= 2


class TestRules:
    def test_nominal_findings_are_deterministic(self):
        a = [f.key for f in lint_races()]
        b = [f.key for f in lint_races()]
        assert a == b
        assert a == sorted(a) or len(set(a)) == len(a)

    def test_nominal_findings_all_sb5xx_and_line_free_keys(self):
        findings = lint_races()
        assert findings, "expected nominal SB5xx findings"
        for f in findings:
            assert f.code in SB5_CODES
            # keys must survive unrelated line churn
            assert "::" in f.key and not f.key.rstrip().endswith(".py")

    def test_every_nominal_finding_is_baselined_and_justified(self):
        """Acceptance: zero unbaselined SB5xx, every entry justified."""
        _, repo_root = repo_paths()
        baseline = Baseline.load(repo_root / "lint-baseline.txt")
        kept, _pragma = apply_pragmas(lint_races(), repo_root)
        fresh, suppressed, _ = baseline.split(kept)
        assert fresh == [], "\n".join(f.key for f in fresh)
        for f in suppressed:
            reason = baseline.justifications.get(f.key, "")
            assert reason and "TODO" not in reason, f.key

    def test_no_send_before_update_nominally(self):
        """SB502 is clean on the real tree (the seeded reorder adds one)."""
        assert not [f for f in lint_races() if f.code == "SB502"]


class TestSeededMutations:
    """Acceptance: >=2 seeded race bugs caught statically (we ship 3)."""

    def test_each_mutation_adds_exactly_its_expected_key(self):
        assert len(SOURCE_MUTATIONS) >= 2
        pkg_dir, _ = repo_paths()
        nominal = keys(lint_races())
        for name in SOURCE_MUTATIONS:
            overrides, expected = overrides_for(name, pkg_dir)
            mutated = keys(lint_races(source_overrides=overrides))
            assert expected in mutated, name
            assert expected not in nominal, name
            # the surgery must not suppress any nominal finding
            assert nominal <= mutated, name

    def test_mutation_transforms_fail_loudly_when_stale(self):
        """A transform that no longer matches the source must raise, not
        silently produce an unmutated tree."""
        for m in SOURCE_MUTATIONS.values():
            if m.name == "reservation-leak":
                continue  # str.replace variant has no sentinel
            try:
                m.transform("def nothing(): pass\n")
            except ValueError:
                continue
            raise AssertionError(f"{m.name} accepted unrelated source")
