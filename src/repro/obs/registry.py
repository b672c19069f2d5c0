"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is the measurement substrate for the whole pipeline.  Design
constraints, in order:

1. **Hot-path cheap.**  Instrument handles (:class:`Counter`,
   :class:`Histogram`) are bound once and incremented with a plain
   attribute update — no dict lookup, no lock, no string formatting per
   event.  A :class:`NullRegistry` provides no-op handles with the same
   interface so instrumented code needs no ``if enabled`` branches; the
   zero-overhead guard in ``benchmarks/bench_measurement.py`` keeps the
   real registry within 5% of the no-op path.
2. **Deterministic snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
   :class:`MetricsSnapshot` whose JSON form has sorted keys and a stable
   ``name{label=value,...}`` flat-key scheme, so two runs over the same
   store diff cleanly.

The *active* registry is context-local (:func:`get_registry` /
:func:`use_registry`), defaulting to a process-wide enabled registry.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

#: Sorted ``(key, value)`` pairs — the canonical form of a label set.
LabelKey = tuple[tuple[str, str], ...]

#: Histograms keep at most this many raw samples for quantile estimation;
#: count/sum/min/max remain exact past the cap.  Retention is a systematic
#: stride subsample (keep every 2^k-th observation, doubling k whenever the
#: buffer fills) — deterministic (no reservoir RNG), bounded for
#: arbitrarily long-running processes, and covering the whole stream rather
#: than just its first minutes.
HISTOGRAM_SAMPLE_CAP = 4096


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _flat_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({_flat_name(self.name, self.labels)}={self.value})"


class Gauge:
    """Last-write-wins float."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({_flat_name(self.name, self.labels)}={self.value})"


@dataclass(frozen=True)
class HistogramSummary:
    """Serializable digest of one histogram."""

    count: int
    total: float
    min: Optional[float]
    max: Optional[float]
    p50: Optional[float]
    p95: Optional[float]

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "HistogramSummary":
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            min=None if data.get("min") is None else float(data["min"]),
            max=None if data.get("max") is None else float(data["max"]),
            p50=None if data.get("p50") is None else float(data["p50"]),
            p95=None if data.get("p95") is None else float(data["p95"]),
        )


class Histogram:
    """Streaming value distribution with nearest-rank quantiles.

    Memory is bounded for long-running processes (a serve daemon observing
    request latency for days): the retained-sample buffer never exceeds
    :data:`HISTOGRAM_SAMPLE_CAP`.  Below the cap every observation is kept
    and quantiles are exact.  When the buffer fills it is compacted to every
    other sample and the retention stride doubles, so the survivors are
    always observations ``0, s, 2s, ...`` for the current stride ``s`` — a
    systematic subsample of the *entire* stream, reproducible for identical
    observation sequences.
    """

    __slots__ = (
        "name",
        "labels",
        "count",
        "total",
        "min",
        "max",
        "_samples",
        "_stride",
        "_next_index",
    )

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: list[float] = []
        #: Keep every ``_stride``-th observation; doubles on compaction.
        self._stride = 1
        #: Observation index (0-based) of the next sample to retain.
        self._next_index = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = self.count
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if index == self._next_index:
            self._samples.append(value)
            self._next_index = index + self._stride
            if len(self._samples) >= HISTOGRAM_SAMPLE_CAP:
                self._compact()

    def _compact(self) -> None:
        """Halve the retained samples and double the stride (deterministic)."""
        self._samples = self._samples[::2]
        self._stride *= 2
        # Survivors sit at observation indices 0, s, ..., (n-1)*s for the
        # new stride s; the next aligned index follows the last survivor.
        self._next_index = len(self._samples) * self._stride

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the retained samples, ``0 <= q <= 1``.

        ``None`` with no samples; the single sample with one.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> HistogramSummary:
        return HistogramSummary(
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            p50=self.quantile(0.5),
            p95=self.quantile(0.95),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({_flat_name(self.name, self.labels)} n={self.count})"


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time copy of a registry, ready for JSON serialization.

    Keys are flat ``name`` or ``name{label=value,...}`` strings with labels
    sorted, so the JSON form is byte-stable across runs that took the same
    measurements.
    """

    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, HistogramSummary]

    def to_json(self) -> dict:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_json() for k in sorted(self.histograms)
            },
        }

    def to_json_str(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json` — lets one process adopt another's
        snapshot (the sharded serve cluster merges worker ``/metrics``
        bodies through here)."""
        return cls(
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                str(k): HistogramSummary.from_json(v)
                for k, v in data.get("histograms", {}).items()
            },
        )


def _parse_flat_key(key: str) -> tuple[str, list[tuple[str, str]]]:
    """Split a ``name{label=value,...}`` flat key back into name + labels."""
    name, brace, inner = key.partition("{")
    if not brace:
        return name, []
    pairs: list[tuple[str, str]] = []
    for part in inner.rstrip("}").split(","):
        k, _, v = part.partition("=")
        pairs.append((k, v))
    return name, pairs


def _relabeled(key: str, label: str, value: object) -> str:
    """``key`` with one extra label folded into the sorted label set."""
    name, pairs = _parse_flat_key(key)
    pairs.append((label, str(value)))
    return _flat_name(name, tuple(sorted(pairs)))


def merge_shard_snapshots(
    local: MetricsSnapshot,
    shard_snapshots: Sequence[tuple[object, MetricsSnapshot]],
    *,
    label: str = "shard",
) -> MetricsSnapshot:
    """One cluster-wide snapshot from a front-end's and its workers'.

    Counters are *summed* unlabeled (a cluster total: ``serve.ingest.lines``
    across shards reads like one daemon's).  Gauges and histogram summaries
    are point-in-time per-process facts that cannot be meaningfully added,
    so each worker's keep their identity under an extra ``label=<value>``
    label — ``serve.ingest.lag_lines{shard=1}`` — while the front-end's own
    stay unlabeled.  Deterministic: label sets are re-sorted, so merged
    snapshots diff cleanly run-to-run like plain ones.
    """
    counters = dict(local.counters)
    gauges = dict(local.gauges)
    histograms = dict(local.histograms)
    for shard_value, snap in shard_snapshots:
        for key, value in snap.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, gauge_value in snap.gauges.items():
            gauges[_relabeled(key, label, shard_value)] = gauge_value
        for key, summary in snap.histograms.items():
            histograms[_relabeled(key, label, shard_value)] = summary
    return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)


class MetricsRegistry:
    """Creates and memoizes instruments; the mutable metrics store.

    Not thread-safe by design (the pipeline parallelizes across processes,
    not threads); keeping instruments lock-free is what makes them cheap.
    Processes combine through snapshots (:func:`merge_shard_snapshots`).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        #: Hot-path callers memoize pre-bound instrument bundles here (see
        #: ``ReconCounters.for_registry``); dropped by :meth:`clear` so
        #: stale handles can't detach from future snapshots.
        self.bind_cache: dict[object, object] = {}

    # ------------------------------------------------------------------ #
    # instrument factories (memoized per name+labels)

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels) if labels else ())
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(*key)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels) if labels else ())
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(*key)
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _label_key(labels) if labels else ())
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(*key)
        return instrument

    # ------------------------------------------------------------------ #

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.bind_cache.clear()

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={
                _flat_name(name, key): c.value
                for (name, key), c in self._counters.items()
            },
            gauges={
                _flat_name(name, key): g.value
                for (name, key), g in self._gauges.items()
            },
            histograms={
                _flat_name(name, key): h.summary()
                for (name, key), h in self._histograms.items()
            },
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The registry-disabled path: every instrument is a shared no-op.

    Instrumented code runs unchanged; nothing is recorded and
    :meth:`snapshot` is empty.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str, **labels: object) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._null_histogram


@contextmanager
def timer(histogram: Histogram) -> Iterator[None]:
    """Observe a ``with`` block's wall seconds into ``histogram``.

    The labeled sibling of :func:`repro.obs.spans.span`: spans key their
    histogram by stage *name*, which is wrong for per-route request latency
    (one series per route label, not one route per series) — the serve
    layer's ``serve.request.seconds{route=...}`` histograms go through here.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start)


# --------------------------------------------------------------------- #
# the active registry (context-local, enabled by default)

_DEFAULT_REGISTRY = MetricsRegistry()

_ACTIVE: ContextVar[MetricsRegistry] = ContextVar(
    "repro_obs_registry", default=_DEFAULT_REGISTRY
)


def get_registry() -> MetricsRegistry:
    """The registry instrumented code records into right now."""
    return _ACTIVE.get()


def set_registry(registry: MetricsRegistry) -> Token[MetricsRegistry]:
    """Replace the active registry for the current context.

    Returns the reset token so callers can restore the previous registry
    (``_ACTIVE.reset(token)``); scoped installs should prefer
    :func:`use_registry` (CC006).
    """
    return _ACTIVE.set(registry)


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Scope the active registry to a ``with`` block (restores on exit)."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)
