"""S2 — batch-path costs: throughput and peak memory per execution shape.

The session layer promises backend-independent *results*; this benchmark
records the *costs* of the batch path: packets/second of full-materialization
vs streaming reconstruction, and the peak working set of each.  The
streaming row demonstrates the bounded-batch path end to end: groups are
materialized at most ``batch_size`` at a time (asserted), at the price of
re-scanning the corpus once per key window.

Wall time and memory come from separate passes: ``tracemalloc`` slows the
reconstruction loop several-fold, so throughput is the median of untraced
runs and ``py_peak_mb`` comes from one extra traced run.
"""

import json
import pathlib
import resource
import statistics
import time
import tracemalloc

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.backends import SerialBackend
from repro.core.session import ReconstructionSession
from repro.events.merge import iter_packet_groups
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import BENCH_SCHEMA, bench_seed, run_metadata

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_backends.json"

#: Untraced timing runs per row; the median is recorded.
REPEATS = 3


def prepare(n_nodes=120, days=1, seed=None):
    if seed is None:
        seed = bench_seed("backends", 51)
    params = citysee(n_nodes=n_nodes, days=days, seed=seed)
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    return logs


def timed(fn):
    """(result, wall seconds) for one untraced call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def traced_peak(fn):
    """Python peak bytes of one call under ``tracemalloc`` (never timed)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_backend_throughput(emit):
    logs = prepare()
    runs = {
        "serial": lambda: ReconstructionSession(
            backend=SerialBackend()
        ).reconstruct(logs),
        "serial+stream": lambda: ReconstructionSession(
            backend=SerialBackend(), stream=True, batch_size=64
        ).reconstruct(logs),
    }
    rows = []
    baseline = None
    measured: dict[str, dict] = {}
    for name, fn in runs.items():
        times = []
        for _ in range(REPEATS):
            flows, elapsed = timed(fn)
            times.append(elapsed)
        elapsed = statistics.median(times)
        peak = traced_peak(fn)
        if baseline is None:
            baseline = {p: f.labels() for p, f in flows.items()}
        else:  # cost table only makes sense over identical work
            assert {p: f.labels() for p, f in flows.items()} == baseline, name
        measured[name] = {
            "packets": len(flows),
            "seconds": round(elapsed, 4),
            "packets_per_s": round(len(flows) / elapsed, 1),
            "py_peak_mb": round(peak / 1e6, 2),
            "repeats": REPEATS,
            "spread_s": round(max(times) - min(times), 4),
        }
        rows.append(
            (
                name,
                len(flows),
                f"{elapsed:.3f}",
                f"{len(flows) / elapsed:.0f}",
                f"{peak / 1e6:.1f}",
            )
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    table = render_table(
        ["backend", "packets", "wall_s", "pkt_per_s", "py_peak_MB"], rows
    )
    emit("bench_backends", table + f"\nprocess ru_maxrss {rss_mb:.0f} MB")

    corpus = {"n_nodes": 120, "days": 1, "packets": len(baseline)}
    BASELINE_PATH.write_text(
        json.dumps(
            {
                "schema": BENCH_SCHEMA,
                "run": run_metadata(
                    "backends", seed=bench_seed("backends", 51), corpus=corpus
                ),
                "corpus": corpus,
                "backends": measured,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_streaming_bounds_group_materialization():
    """The streaming path must never hold more than batch_size groups."""
    logs = prepare(n_nodes=60)
    batch_size = 32
    peak_groups = 0
    total = 0
    for batch in iter_packet_groups(logs, batch_size=batch_size):
        peak_groups = max(peak_groups, len(batch))
        total += len(batch)
    assert peak_groups <= batch_size
    assert total > batch_size  # the corpus genuinely exceeded one window


def test_streaming_peak_memory_below_full_grouping(emit):
    """Bounded batching keeps the grouping working set well under the
    one-pass full grouping on the same corpus."""
    from repro.events.merge import group_by_packet

    logs = prepare(n_nodes=120, days=2)

    def full():
        return len(group_by_packet(logs))

    def streamed():
        count = 0
        for batch in iter_packet_groups(logs, batch_size=32):
            count += len(batch)
        return count

    n_full, t_full = timed(full)
    n_stream, t_stream = timed(streamed)
    peak_full, peak_stream = traced_peak(full), traced_peak(streamed)
    assert n_full == n_stream
    table = render_table(
        ["grouping", "packets", "wall_s", "py_peak_MB"],
        [
            ("one-pass", n_full, f"{t_full:.3f}", f"{peak_full / 1e6:.2f}"),
            ("streamed(32)", n_stream, f"{t_stream:.3f}", f"{peak_stream / 1e6:.2f}"),
        ],
    )
    emit("bench_backends_memory", table)
    # the point of the exercise: bounded batches need less live memory
    assert peak_stream < peak_full
