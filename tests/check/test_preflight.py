"""Tests for the pipeline pre-flight gate."""

import pytest

from repro.check import PreflightError, preflight_check
from repro.check.runner import model_errors, run_check
from repro.check.specs import load_spec
from repro.fsm.graph import TransitionGraph
from repro.fsm.prerequisites import Peer, PrereqRule
from repro.fsm.templates import FsmTemplate, forwarder_template
from repro.obs import MetricsRegistry, use_registry


def broken_template():
    """A template whose prerequisite can never be satisfied."""
    return FsmTemplate(
        "broken",
        TransitionGraph(["a", "b"], [("a", "b", "e")], "a"),
        prereqs={"e": [PrereqRule(Peer.SRC, "GHOST")]},
    )


class TestPreflightCheck:
    def test_clean_template_passes(self):
        report = preflight_check(forwarder_template())
        assert report is not None and report.ok

    def test_broken_template_raises_with_findings(self):
        with pytest.raises(PreflightError) as excinfo:
            preflight_check(broken_template())
        assert any(f.code == "XF001" for f in excinfo.value.findings)
        assert "XF001" in str(excinfo.value)

    def test_raise_on_error_false_returns_report(self):
        report = preflight_check(broken_template(), raise_on_error=False)
        assert report is not None and not report.ok

    def test_per_node_template_passes_without_analysis(self):
        report = preflight_check(lambda node: forwarder_template())
        assert report is None


class TestPipelineGate:
    def test_evaluate_default_preflight_is_clean(self):
        from repro.analysis.pipeline import evaluate
        from repro.simnet.scenarios import small_network

        result = evaluate(small_network(n_nodes=8, minutes=10.0, seed=2))
        assert result.flows

    def test_model_errors_excludes_corpus_codes(self):
        report = run_check(load_spec("ctp"))
        assert model_errors(report) == []


class TestCheckObservability:
    def test_run_check_emits_counters_and_spans(self, tmp_path):
        (tmp_path / "operations.json").write_text(
            '{"sink": 1, "base_station": 1, "gen_interval": 60.0}'
        )
        (tmp_path / "node_0001.log").write_text("node=1 type=recv\n@@@\n")
        registry = MetricsRegistry()
        with use_registry(registry):
            run_check(load_spec("ctp"), tmp_path)
        snap = registry.snapshot()
        assert snap.counters.get("check.corpus.lines") == 2
        assert snap.counters.get("check.corpus.corrupt") == 1
        assert any(k.startswith("check.findings") for k in snap.counters)
        assert "span.check" in snap.histograms
        assert "span.check.corpus" in snap.histograms
