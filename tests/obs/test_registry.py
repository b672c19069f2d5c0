"""Tests for the metrics registry: instruments, quantiles, merge, snapshots."""

import json
import pickle

import pytest

from repro.obs.registry import (
    HISTOGRAM_SAMPLE_CAP,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    get_registry,
    merge_shard_snapshots,
    use_registry,
)


class TestCounters:
    def test_inc_default_and_n(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_memoized_per_name_and_labels(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", node=1) is reg.counter("x", node=1)
        assert reg.counter("x", node=1) is not reg.counter("x", node=2)
        assert reg.counter("x", node=1) is not reg.counter("x")

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)


class TestHistogramQuantiles:
    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) is None
        s = h.summary()
        assert s.count == 0 and s.min is None and s.max is None
        assert s.p50 is None and s.p95 is None

    def test_single_sample_is_every_quantile(self):
        h = MetricsRegistry().histogram("h")
        h.observe(3.5)
        assert h.quantile(0.0) == 3.5
        assert h.quantile(0.5) == 3.5
        assert h.quantile(0.95) == 3.5
        assert h.quantile(1.0) == 3.5
        s = h.summary()
        assert s.count == 1 and s.min == s.max == s.p50 == s.p95 == 3.5

    def test_nearest_rank_many_samples(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.5) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(1.0) == 100.0
        assert h.summary().max == 100.0

    def test_quantile_out_of_range_rejected(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_sample_cap_keeps_exact_aggregates(self):
        h = MetricsRegistry().histogram("h")
        n = HISTOGRAM_SAMPLE_CAP + 100
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert h.total == sum(range(n))
        assert h.max == float(n - 1)  # exact even though the sample is capped
        assert len(h._samples) <= HISTOGRAM_SAMPLE_CAP

    def test_retention_stays_bounded_and_covers_the_stream(self):
        # a long-running daemon's histogram must not grow without limit,
        # and the retained subsample must span the whole stream (a
        # first-N policy would freeze quantiles at the first minutes)
        h = MetricsRegistry().histogram("h")
        n = HISTOGRAM_SAMPLE_CAP * 8
        for v in range(n):
            h.observe(float(v))
        assert len(h._samples) <= HISTOGRAM_SAMPLE_CAP
        assert h._samples[0] == 0.0
        assert max(h._samples) > 0.9 * (n - 1)
        # quantiles track the full stream, not its prefix
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.01)
        assert h.quantile(0.95) == pytest.approx(0.95 * n, rel=0.01)

    def test_retention_is_deterministic(self):
        def build():
            h = MetricsRegistry().histogram("h")
            for v in range(HISTOGRAM_SAMPLE_CAP * 3 + 17):
                h.observe(float(v % 997))
            return h

        a, b = build(), build()
        assert a._samples == b._samples
        assert a.summary() == b.summary()


class TestPickle:
    def test_registry_pickles_for_worker_transport(self):
        reg = MetricsRegistry()
        reg.counter("c", node=3).inc(4)
        reg.histogram("h").observe(1.5)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.counter("c", node=3).value == 4
        assert clone.histogram("h").count == 1


class TestSnapshot:
    def test_flat_names_and_values(self):
        reg = MetricsRegistry()
        reg.counter("events", kind="recv").inc(7)
        reg.gauge("depth").set(2.0)
        reg.histogram("lat").observe(0.25)
        snap = reg.snapshot()
        assert snap.counters == {"events{kind=recv}": 7}
        assert snap.gauges == {"depth": 2.0}
        assert snap.histograms["lat"].count == 1

    def test_json_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(1)
            reg.counter("a", z=1, a=2).inc(2)
            reg.histogram("h").observe(1.0)
            return reg.snapshot().to_json_str()

        text = build()
        assert text == build()
        data = json.loads(text)
        assert list(data["counters"]) == sorted(data["counters"])

    def test_clear_resets_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.bind_cache["k"] = object()
        reg.clear()
        assert reg.snapshot().counters == {}
        assert reg.bind_cache == {}


class TestNullRegistry:
    def test_records_nothing(self):
        reg = NullRegistry()
        reg.counter("c", node=1).inc(5)
        reg.gauge("g").set(3.0)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap.counters == {} and snap.gauges == {} and snap.histograms == {}
        assert not reg.enabled


class TestActiveRegistry:
    def test_default_is_enabled(self):
        assert get_registry().enabled

    def test_use_registry_scopes_and_restores(self):
        outer = get_registry()
        inner = MetricsRegistry()
        with use_registry(inner) as reg:
            assert reg is inner
            assert get_registry() is inner
        assert get_registry() is outer

    def test_use_registry_restores_on_exception(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is outer


class TestSnapshotJsonRoundTrip:
    def test_from_json_inverts_to_json(self):
        reg = MetricsRegistry()
        reg.counter("events", kind="recv").inc(7)
        reg.gauge("depth").set(2.0)
        for v in (0.25, 0.5, 4.0):
            reg.histogram("lat").observe(v)
        snap = reg.snapshot()
        clone = MetricsSnapshot.from_json(json.loads(snap.to_json_str()))
        assert clone.counters == snap.counters
        assert clone.gauges == snap.gauges
        assert clone.to_json() == snap.to_json()

    def test_from_json_tolerates_empty_histograms(self):
        snap = MetricsSnapshot.from_json(
            {"counters": {}, "gauges": {}, "histograms": {
                "h": {"count": 0, "total": 0.0, "min": None, "max": None,
                      "p50": None, "p95": None},
            }}
        )
        assert snap.histograms["h"].count == 0
        assert snap.histograms["h"].min is None


class TestMergeShardSnapshots:
    def _shard_snap(self, lines: int, lag: float) -> "MetricsSnapshot":
        reg = MetricsRegistry()
        reg.counter("serve.ingest.lines").inc(lines)
        reg.counter("codec.corrupt_lines", source="a.log").inc(1)
        reg.gauge("serve.ingest.lag_lines").set(lag)
        reg.histogram("serve.request.seconds", route="/flows").observe(0.1)
        return reg.snapshot()

    def test_counters_sum_unlabeled(self):
        local = MetricsRegistry()
        merged = merge_shard_snapshots(
            local.snapshot(),
            [(0, self._shard_snap(10, 1.0)), (1, self._shard_snap(32, 2.0))],
        )
        assert merged.counters["serve.ingest.lines"] == 42
        assert merged.counters["codec.corrupt_lines{source=a.log}"] == 2

    def test_gauges_and_histograms_get_shard_labels(self):
        local = MetricsRegistry()
        local.gauge("serve.ingest.lag_lines").set(0.0)  # the router's own
        merged = merge_shard_snapshots(
            local.snapshot(),
            [(0, self._shard_snap(1, 3.0)), (1, self._shard_snap(1, 4.0))],
        )
        assert merged.gauges["serve.ingest.lag_lines"] == 0.0
        assert merged.gauges["serve.ingest.lag_lines{shard=0}"] == 3.0
        assert merged.gauges["serve.ingest.lag_lines{shard=1}"] == 4.0
        # existing labels stay, and the label set is re-sorted canonically
        assert (
            "serve.request.seconds{route=/flows,shard=0}" in merged.histograms
        )

    def test_local_counters_also_participate_in_the_sum(self):
        local = MetricsRegistry()
        local.counter("serve.requests", route="/flows", code=200).inc(5)
        merged = merge_shard_snapshots(
            local.snapshot(), [(0, self._shard_snap(1, 0.0))]
        )
        assert merged.counters["serve.requests{code=200,route=/flows}"] == 5
        assert merged.counters["serve.ingest.lines"] == 1
