"""The traced run: per-layer metrics, reconciled against untraced wall time.

For every workload the traced run

1. measures the door once with nothing added (the untraced pass);
2. on the daemon workloads, measures the door again and collects what the
   program already exposes — span histograms in ``/metrics``, the daemon's
   CPU seconds, ``/readyz`` detail on ``live`` — all read outside the pass's
   timed window, so that pass's own wall is untraced too and is the one its
   layer times are reconciled against;
3. runs ``replay.py`` in a fresh interpreter, which times each layer's
   public calls with bench-side spans.  On ``analyze`` the replay mirrors
   the CLI, runs interleaved with untraced CLI runs, and its layer self times
   are reconciled against their median wall.

``trace.unattributed_share`` is the part of that wall the layer self times
do not cover; the run fails when its magnitude exceeds
:data:`RECONCILE_BOUND`.  ``trace.overhead_ratio`` is the wall of the pass
that collected layer times divided by the untraced pass's wall.  A layer the
workload's door never calls reports 0.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import harness
import workloads
from harness import Corpus, Daemon, median, percentile, sha256
from replay import durations, self_times

#: Largest |unattributed share| a traced run accepts.
RECONCILE_BOUND = 0.25
#: Replays interleaved with untraced CLI runs on ``analyze``.
ANALYZE_REPLAYS = 2
#: Router-vs-shard probes per route on ``live``.
ROUTER_PROBES = 5

PER_LAYER = {
    "store.load_s": "s",
    "check.preflight_s": "s",
    "merge.group_s": "s",
    "codec.scan_lines_per_s": "1/s",
    "recon.total_s": "s",
    "recon.packet_p50_us": "us",
    "recon.packet_p99_us": "us",
    "recon.events_per_s": "1/s",
    "recon.inferred_ratio": "ratio",
    "recon.omitted_ratio": "ratio",
    "session.recon_per_packet": "ratio",
    "session.ingest_s": "s",
    "session.refresh_s": "s",
    "session.pending_wait_ms": "ms",
    "ingest.lag_wait_ms": "ms",
    "diagnose.classify_s": "s",
    "diagnose.outage_attrib_s": "s",
    "serialize.to_json_s": "s",
    "serialize.dumps_s": "s",
    "serialize.flows_bytes": "bytes",
    "http.flow.server_p50_ms": "ms",
    "http.flows.server_p50_ms": "ms",
    "http.summary.server_p50_ms": "ms",
    "http.flow.queue_ms": "ms",
    "serve.decode_s": "s",
    "serve.frame_s": "s",
    "serve.loop_cpu_s": "s",
    "router.flows_overhead_ms": "ms",
    "router.summary_overhead_ms": "ms",
    "router.shard_skew": "ratio",
    "checkpoint.write_s": "s",
    "checkpoint.bytes": "bytes",
    "obs.metrics_series": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            harness.log(f"traced run: {what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.record(1, int(not ok), what)


# ---------------------------------------------------------------------- #
# helpers


def run_replay(workload: str, seed: int, requests: int = 0) -> tuple[dict, float]:
    """The replay child's record and its wall time seen from here."""
    out = harness.scratch_dir("replay-out") / "spans.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(harness.HERE / "replay.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out), "--requests", str(requests)],
        env=harness.child_env(), cwd=harness.ROOT, check=True,
    )
    wall = time.perf_counter() - start
    return json.loads(out.read_text()), wall


def replay_layers(record: dict, corpus: Corpus) -> dict:
    """Per-layer metrics from the replay's spans and counts."""
    spans = record["spans"]
    own = self_times(spans)
    packet = durations(spans, "recon.packet")
    recon_total = sum(packet)
    to_json = durations(spans, "serialize.to_json")
    dumps = durations(spans, "serialize.dumps")
    scan = own.get("codec.scan", 0.0)
    entries = record["entries"] or 1
    out = {
        "store.load_s": own.get("store.load", 0.0),
        "check.preflight_s": own.get("check.preflight", 0.0),
        "merge.group_s": own.get("merge.group", 0.0),
        "codec.scan_lines_per_s": record["scanned_lines"] / scan if scan else 0.0,
        "recon.inferred_ratio": record["inferred"] / entries,
        "recon.omitted_ratio": record["omitted"] / entries,
        "session.ingest_s": own.get("session.ingest", 0.0),
        "session.refresh_s": own.get("session.refresh", 0.0),
        "diagnose.classify_s": own.get("diagnose.classify", 0.0),
        "diagnose.outage_attrib_s": own.get("diagnose.outage_attrib", 0.0),
        "serialize.to_json_s": median(to_json) if to_json else 0.0,
        "serialize.dumps_s": median(dumps) if dumps else 0.0,
        "serialize.flows_bytes": record["flows_bytes"],
    }
    if packet:
        out.update({
            "recon.total_s": recon_total,
            "recon.packet_p50_us": median(packet) * 1e6,
            "recon.packet_p99_us": percentile(packet, 99) * 1e6,
            "recon.events_per_s": record["events"] / recon_total,
        })
    return out


def daemon_totals(metrics: dict) -> dict[str, float]:
    """Histogram totals summed over labels, by base name."""
    totals: dict[str, float] = {}
    for name, hist in metrics.get("histograms", {}).items():
        base = name.split("{", 1)[0]
        totals[base] = totals.get(base, 0.0) + hist["total"]
    return totals


def checkpoint(daemon: Daemon, fails: Failures) -> dict:
    """One ``POST /checkpoint``: client-side time and bytes on disk."""
    start = time.perf_counter()
    status, _ = harness.http(daemon.http_port, "/checkpoint", method="POST", timeout=60)
    elapsed = time.perf_counter() - start
    fails.check(status == 200, "POST /checkpoint")
    size = sum(p.stat().st_size for p in daemon.workdir.glob("cp*.json"))
    return {"checkpoint.write_s": elapsed, "checkpoint.bytes": size}


def serve_layers(metrics: dict, corpus: Corpus) -> dict:
    totals = daemon_totals(metrics)
    return {
        "serve.decode_s": totals.get("span.serve.decode", 0.0),
        "serve.frame_s": totals.get("span.serve.frame", 0.0),
        "session.recon_per_packet":
            metrics["counters"].get("refill.packets", 0) / corpus.packets,
        "obs.metrics_series": harness.series_count(metrics),
    }


# ---------------------------------------------------------------------- #
# per workload: (layers, reconciled untraced wall, attributed, overhead ratio,
# replay record)


def trace_analyze(corpus: Corpus, seed: int, seconds: float, fails: Failures):
    """CLI runs interleaved with replays, so machine drift hits both alike."""
    work = harness.scratch_dir("analyze")
    walls, replays = [], []
    for i in range(2 * ANALYZE_REPLAYS + 1):
        if i % 2:
            replays.append(run_replay("analyze", seed))
            continue
        wall, _, ok = workloads.analyze_once(corpus, work / "flows.json")
        fails.check(ok, "analyze --flows-out byte check")
        walls.append(wall)
    attributed = []
    for record, _ in replays:
        own = self_times(record["spans"])
        attributed.append(sum(v for k, v in own.items() if k != "door"))
    record = replays[0][0]
    layers = replay_layers(record, corpus)
    layers["session.recon_per_packet"] = record["reconstructions"] / corpus.packets
    untraced = median(walls)
    traced = median([wall for _, wall in replays])
    return layers, untraced, median(attributed), traced / untraced, record


def trace_backfill(corpus: Corpus, seed: int, seconds: float, fails: Failures):
    work = harness.scratch_dir("backfill")
    (work / "a").mkdir()
    daemon, untraced, ok = workloads.backfill_once(corpus, work / "a")
    daemon.stop()
    fails.check(ok, "backfill /flows byte check")
    (work / "b").mkdir()
    cpu: list = []
    # nothing is added inside this push's timed window: /proc and /metrics
    # are read outside it, so its own wall is reconciled
    daemon, wall, ok = workloads.backfill_once(corpus, work / "b", cpu=cpu)
    with daemon:
        fails.check(ok, "backfill /flows byte check")
        layers = checkpoint(daemon, fails)
        metrics = daemon.metrics()
    totals = daemon_totals(metrics)
    ready = metrics["histograms"].get("serve.request.seconds{route=readyz}", {})
    # the daemon's event loop is one thread: these spans never overlap
    spans = sum(
        totals.get(name, 0.0)
        for name in ("span.serve.frame", "span.serve.decode",
                     "span.serve.ingest.batch", "span.serve.refresh")
    ) + ready.get("total", 0.0)
    # CPU the daemon spent outside those spans: event loop, sockets, framing
    # glue; what neither covers is time the daemon sat idle, unattributed
    layers["serve.loop_cpu_s"] = max(0.0, cpu[0] - spans)
    attributed = spans + layers["serve.loop_cpu_s"]
    layers.update(serve_layers(metrics, corpus))
    record, _ = run_replay("backfill", seed)
    replayed = replay_layers(record, corpus)
    layers.update({k: v for k, v in replayed.items() if k not in layers})
    return layers, wall, attributed, wall / untraced, record


def trace_query(corpus: Corpus, seed: int, seconds: float, fails: Failures):
    work = harness.scratch_dir("query")
    window = max(1.0, seconds / 2)
    plans = [workloads.query_plan(corpus, seed, c) for c in range(2)]
    with workloads.warm_query_daemon(corpus, work) as daemon:
        samples_u, wall_u = workloads.closed_loop(daemon.http_port, corpus, plans, window)
        before = daemon.metrics()
        samples_t, wall_t = workloads.closed_loop(daemon.http_port, corpus, plans, window)
        after = daemon.metrics()
    for samples in (samples_u, samples_t):
        fails.record(len(samples), sum(1 for *_, ok in samples if not ok), "queries")
    busy = sum(
        hist["total"] - before["histograms"].get(name, {}).get("total", 0.0)
        for name, hist in after["histograms"].items()
        if name.startswith("serve.request.seconds{route=")
        and not name.endswith("route=metrics}")
    )
    per_u = wall_u / len(samples_u)
    per_t = wall_t / len(samples_t)
    hist = after["histograms"]
    server = {
        route: hist.get(f"serve.request.seconds{{route={route}}}", {}).get("p50", 0.0) * 1e3
        for route in ("flow", "flows", "summary")
    }
    client = workloads.latency_summary(samples_t)
    layers = {
        "http.flow.server_p50_ms": server["flow"],
        "http.flows.server_p50_ms": server["flows"],
        "http.summary.server_p50_ms": server["summary"],
        "http.flow.queue_ms": client["flow_p50_ms"] - server["flow"],
        "obs.metrics_series": harness.series_count(after),
    }
    record, _ = run_replay("query", seed, requests=len(samples_t))
    replayed = replay_layers(record, corpus)
    layers.update({k: v for k, v in replayed.items() if k not in layers})
    # per-request walls: the two windows ran different request counts; the
    # second window's own wall is reconciled (/metrics is read around it)
    return layers, per_t, busy / len(samples_t), per_t / per_u, record


def round_waits(timeline) -> tuple[list, list, list]:
    """Per round: send time, time ``/readyz`` showed undelivered lines, and
    time it showed only dirty packets."""
    sends, lag, pending = [], [], []
    for began, sends_done, polls in timeline:
        sends.append(sends_done - began)
        lag_s = pending_s = 0.0
        prev = sends_done
        for t, detail in polls:
            if detail.get("lag_lines", 0) or detail.get("queued_batches", 0):
                lag_s += t - prev
            elif detail.get("pending_packets", 0):
                pending_s += t - prev
            prev = t
        lag.append(lag_s)
        pending.append(pending_s)
    return sends, lag, pending


def router_probe(daemon: Daemon, path: str) -> tuple[float, float]:
    """p50 of ``path`` on the router and on the slowest shard (ms)."""
    def p50(port: int) -> float:
        times = []
        for _ in range(ROUTER_PROBES):
            start = time.perf_counter()
            harness.http(port, path)
            times.append((time.perf_counter() - start) * 1e3)
        return median(times)

    return p50(daemon.http_port), max(p50(port) for port in daemon.shard_http_ports())


def trace_live(corpus: Corpus, seed: int, seconds: float, fails: Failures):
    work = harness.scratch_dir("live")
    rounds = workloads.live_rounds(corpus)
    rng = random.Random(seed)
    (work / "a").mkdir()
    with Daemon(corpus.store, work / "a", shards=2) as daemon:
        ep_u = workloads.live_episode(daemon, corpus, rounds, rng)
    (work / "b").mkdir()
    timeline: list = []
    with Daemon(corpus.store, work / "b", shards=2) as daemon:
        ep_t = workloads.live_episode(daemon, corpus, rounds, rng, timeline=timeline)
        status, body = daemon.get("/flows")
        fails.check(status == 200 and sha256(body) == corpus.flows_sha256,
                    "live /flows byte check")
        router_flows, shard_flows = router_probe(daemon, "/flows")
        router_summary, shard_summary = router_probe(daemon, "/summary")
        packets = [
            json.loads(harness.http(port, "/summary")[1])["packets"]
            for port in daemon.shard_http_ports()
        ]
        layers = checkpoint(daemon, fails)
        metrics = daemon.metrics()
    for ep in (ep_u, ep_t):
        fails.record(
            len(ep.samples) + len(rounds),
            ep.failed + ep.behind + sum(1 for *_, ok in ep.samples if not ok),
            "live rounds and queries",
        )
    sends, lag, pending = round_waits(timeline)
    layers.update(serve_layers(metrics, corpus))
    layers.update({
        "router.flows_overhead_ms": router_flows - shard_flows,
        "router.summary_overhead_ms": router_summary - shard_summary,
        "router.shard_skew": max(packets) / (sum(packets) / len(packets)),
        "ingest.lag_wait_ms": median(lag) * 1e3,
        "session.pending_wait_ms": median(pending) * 1e3,
    })
    record, _ = run_replay("live", seed)
    replayed = replay_layers(record, corpus)
    layers.update({k: v for k, v in replayed.items() if k not in layers})
    # the reconciled wall is each round's due time to its /readyz 200, in the
    # episode whose /readyz detail was read
    attributed = sum(sends) + sum(lag) + sum(pending)
    fresh = sum(ep_t.fresh_s)
    return layers, fresh, attributed, fresh / sum(ep_u.fresh_s), record


TRACERS = {
    "analyze": trace_analyze,
    "backfill": trace_backfill,
    "query": trace_query,
    "live": trace_live,
}


def run(workload: str, seed: int, seconds: float) -> dict:
    corpus = harness.corpus(workload, seed)
    fails = Failures()
    layers, wall, attributed, overhead, record = TRACERS[workload](
        corpus, seed, seconds, fails
    )
    fails.check(record["flows_ok"], "replay flows byte check")
    unattributed = (wall - attributed) / wall
    fails.check(
        abs(unattributed) <= RECONCILE_BOUND,
        f"reconciliation (unattributed share {unattributed:+.3f}, "
        f"bound {RECONCILE_BOUND})",
    )
    layers["trace.unattributed_share"] = unattributed
    layers["trace.overhead_ratio"] = overhead
    harness.log(
        f"{workload} traced: wall={wall:.6g}s attributed={attributed:.6g}s "
        f"unattributed_share={unattributed:+.4f} overhead_ratio={overhead:.4f}"
    )
    return {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        },
    }
