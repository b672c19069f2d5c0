"""The perf-regression gate: snapshot diffing, thresholds, and the CLI.

Runs entirely on synthetic fixtures (``tests/fixtures/bench-history/``)
plus the repo's own committed baselines — no benchmark ever executes here,
so the suite stays fast and machine-independent.
"""

import json
import pathlib

import pytest

from benchmarks.bench_history import (
    METRIC_SPECS,
    MetricSpec,
    append_history,
    diff_metric,
    diff_snapshots,
    infer_bench,
    load_snapshot,
    main,
    metric_value,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "bench-history"
REPO = pathlib.Path(__file__).parent.parent

BASELINE = str(FIXTURES / "baseline.json")
REGRESSED = str(FIXTURES / "regressed.json")
IMPROVED = str(FIXTURES / "improved.json")


class TestMetricValue:
    def test_dotted_path_resolution(self):
        snap = {"a": {"b": {"c": 3}}}
        assert metric_value(snap, "a.b.c") == 3.0

    def test_missing_hops_are_none(self):
        assert metric_value({"a": 1}, "a.b") is None
        assert metric_value({}, "a") is None

    def test_non_numeric_leaves_are_none(self):
        assert metric_value({"a": "fast"}, "a") is None
        assert metric_value({"a": True}, "a") is None


class TestDiffMetric:
    def test_higher_is_better_direction(self):
        spec = MetricSpec("ingest.lines_per_s", "higher", 0.40)
        base = {"ingest": {"lines_per_s": 100.0}}
        assert diff_metric(spec, base, {"ingest": {"lines_per_s": 59.0}}).regressed
        ok = diff_metric(spec, base, {"ingest": {"lines_per_s": 61.0}})
        assert not ok.regressed and not ok.improved
        assert diff_metric(spec, base, {"ingest": {"lines_per_s": 141.0}}).improved

    def test_lower_is_better_direction(self):
        spec = MetricSpec("p95", "lower", 0.60)
        base = {"p95": 0.010}
        assert diff_metric(spec, base, {"p95": 0.017}).regressed
        assert not diff_metric(spec, base, {"p95": 0.015}).regressed
        assert diff_metric(spec, base, {"p95": 0.003}).improved

    def test_missing_or_zero_baseline_is_no_data_not_failure(self):
        spec = MetricSpec("x", "higher", 0.40)
        delta = diff_metric(spec, {}, {"x": 5.0})
        assert delta.ratio is None and not delta.regressed
        delta = diff_metric(spec, {"x": 0.0}, {"x": 5.0})
        assert delta.ratio is None and not delta.regressed

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("x", "sideways", 0.4)
        with pytest.raises(ValueError):
            MetricSpec("x", "higher", 0.0)


class TestLoadSnapshot:
    def test_schema_less_files_read_as_v1(self, tmp_path):
        legacy = tmp_path / "BENCH_serve.json"
        legacy.write_text('{"ingest": {"lines_per_s": 10.0}}')
        assert load_snapshot(legacy)["schema"] == 1

    def test_future_schema_rejected(self, tmp_path):
        weird = tmp_path / "x.json"
        weird.write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            load_snapshot(weird)

    def test_non_object_rejected(self, tmp_path):
        weird = tmp_path / "x.json"
        weird.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_snapshot(weird)


class TestInferBench:
    def test_from_stem(self):
        assert infer_bench("some/dir/BENCH_serve.json", None) == "serve"
        assert infer_bench("BENCH_backends.json", None) == "backends"

    def test_explicit_wins(self):
        assert infer_bench("whatever.json", "serve") == "serve"

    def test_unrecognizable_raises(self):
        with pytest.raises(ValueError):
            infer_bench("snapshot.json", None)

    def test_unknown_bench_raises_in_diff(self):
        with pytest.raises(ValueError):
            diff_snapshots({}, {}, "nonesuch")


class TestCompareCommand:
    def test_identical_snapshots_pass(self, capsys):
        code = main(["compare", BASELINE, BASELINE, "--bench", "serve"])
        assert code == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_regression_fails_with_attribution_hint(self, capsys):
        code = main(["compare", BASELINE, REGRESSED, "--bench", "serve"])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "ingest.lines_per_s" in captured.out
        assert "record --note" in captured.err

    def test_improvement_is_not_a_failure(self, capsys):
        code = main(["compare", BASELINE, IMPROVED, "--bench", "serve"])
        assert code == 0
        assert "improved" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, capsys):
        code = main(["compare", BASELINE, REGRESSED, "--bench", "serve",
                     "--json"])
        assert code == 1
        deltas = json.loads(capsys.readouterr().out)
        by_metric = {d["metric"]: d for d in deltas}
        assert by_metric["ingest.lines_per_s"]["regressed"] is True
        assert by_metric["ingest.lines_per_s"]["ratio"] == pytest.approx(0.4)


class TestRecordCommand:
    def test_record_appends_attributed_entry(self, tmp_path, capsys):
        history = tmp_path / "serve.jsonl"
        code = main([
            "record", BASELINE, REGRESSED, "--bench", "serve",
            "--note", "known slowdown: tracing spans added",
            "--history", str(history),
        ])
        assert code == 0
        [entry] = [json.loads(line) for line in history.read_text().splitlines()]
        assert entry["bench"] == "serve"
        assert entry["note"] == "known slowdown: tracing spans added"
        assert entry["regressions"] == 1
        assert len(entry["deltas"]) == len(METRIC_SPECS["serve"])

    def test_append_history_accumulates(self, tmp_path):
        history = tmp_path / "h.jsonl"
        deltas = diff_snapshots(
            load_snapshot(BASELINE), load_snapshot(BASELINE), "serve"
        )
        append_history("serve", deltas, "first", path=history)
        append_history("serve", deltas, "second", path=history)
        notes = [
            json.loads(line)["note"]
            for line in history.read_text().splitlines()
        ]
        assert notes == ["first", "second"]


class TestCommittedTrajectory:
    """The repo's own committed gate inputs must be internally consistent."""

    def test_committed_baseline_vs_current_is_green(self):
        baseline = REPO / "benchmarks" / "baselines" / "BENCH_serve.json"
        current = REPO / "BENCH_serve.json"
        assert baseline.exists() and current.exists()
        assert main(["compare", str(baseline), str(current)]) == 0

    def test_committed_history_entries_are_well_formed(self):
        history = REPO / "benchmarks" / "history" / "serve.jsonl"
        entries = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert entries
        for entry in entries:
            assert entry["bench"] == "serve"
            assert entry["note"]
            assert {"recorded_at", "deltas", "regressions"} <= set(entry)

    def test_committed_backends_baseline_gates_every_metric(self):
        """The batch path is gated: every ``backends`` metric resolves in
        both committed snapshots and the pair diffs green."""
        baseline = REPO / "benchmarks" / "baselines" / "BENCH_backends.json"
        current = REPO / "BENCH_backends.json"
        deltas = diff_snapshots(
            load_snapshot(baseline), load_snapshot(current), "backends"
        )
        assert all(delta.ratio is not None for delta in deltas)
        assert not any(delta.regressed for delta in deltas)
        assert (REPO / "benchmarks" / "history" / "backends.jsonl").read_text()
