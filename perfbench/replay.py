"""Traced replay of one workload's layer calls, in a fresh interpreter.

``traced.py`` runs this file as a child process::

    python perfbench/replay.py --workload analyze --seed 1 --out spans.json

The replay calls the same public functions the workload's door runs —
``load_store``, ``run_check``, ``group_by_packet``,
``ReconstructionSession.reconstruct_group``, ``diagnose``,
``attribute_server_outages``, ``flows_to_json``, ``dumps_canonical``,
``scan_log_bytes`` and ``ReconstructionSession.ingest``/``refresh`` — and
records a span (name, start, end, parent) around each call.  Spans stay in
memory and are written once, with the replay's counts, when it ends.  No
span is placed inside the program's own code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

#: ``ServeConfig().ingest_batch_lines``: the daemon's ingest batch bound.
BATCH_LINES = 512


class Tracer:
    """In-memory span recorder; spans nest by call structure."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus children's durations."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
    return totals


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


# ---------------------------------------------------------------------- #
# replays


def _flow_counts(flows) -> dict:
    entries = sum(len(f.entries) for f in flows.values())
    return {
        "entries": entries,
        "inferred": sum(f.inferred_count for f in flows.values()),
        "omitted": sum(len(f.omitted) for f in flows.values()),
    }


def per_packet(tr: Tracer, session, groups) -> tuple[dict, int]:
    """``reconstruct_group`` on every packet, one span per packet; returns
    the flows and the number of events reconstructed from."""
    flows = {}
    with tr.span("recon"):
        for packet in sorted(groups):
            with tr.span("recon.packet"):
                flows[packet] = session.reconstruct_group(packet, groups[packet])
    events = sum(len(evs) for group in groups.values() for evs in group.values())
    return flows, events


def serialize(tr: Tracer, flows) -> bytes:
    from repro.core.serialize import dumps_canonical, flows_to_json

    with tr.span("serialize.to_json"):
        data = flows_to_json(flows)
    with tr.span("serialize.dumps"):
        text = dumps_canonical(data) + "\n"
    return text.encode()


def replay_analyze(tr: Tracer, corpus, out) -> dict:
    """Mirror of ``refill analyze -q --logs S --flows-out F``."""
    with tr.span("door"):
        with tr.span("import"):
            import repro.cli  # noqa: F401 - the import every CLI run pays
        from repro.analysis.causes import (
            attribute_server_outages,
            cause_shares,
            sink_split,
        )
        from repro.analysis.report import render_cause_shares
        from repro.baselines.sink_view import SinkView
        from repro.check import load_spec, run_check
        from repro.core.session import ReconstructionSession
        from repro.events.merge import group_by_packet
        from repro.events.store import load_store

        with tr.span("check.preflight"):
            run_check(load_spec("ctp"), str(corpus.store))
        with tr.span("store.load"):
            loaded = load_store(corpus.store)
        meta = loaded.metadata
        bs = meta.base_station
        session = ReconstructionSession(delivery_node=bs)
        with tr.span("merge.group"):
            groups = group_by_packet(loaded.logs)
        flows, events = per_packet(tr, session, groups)
        with tr.span("diagnose.classify"):
            reports = session.diagnose(flows)
        with tr.span("diagnose.outage_attrib"):
            arrivals = [
                (e.packet, e.time)
                for e in loaded.logs[bs]
                if e.etype == "recv" and e.packet is not None
            ]
            view = SinkView(arrivals, meta.gen_interval)
            est = {p: view.estimate_loss_time(p) for p in reports}
            reports = attribute_server_outages(
                reports, est, outages=meta.outages, sink=meta.sink, base_station=bs
            )
        with tr.span("report.render"):
            render_cause_shares(cause_shares(reports))
            sink_split(reports, meta.sink)
        body = serialize(tr, flows)
        with tr.span("write"):
            out.write_bytes(body)
    return {"body": body, "flows": flows, "reconstructions": len(flows), "events": events}


def _stream_session(corpus):
    from repro.core.backends import IncrementalBackend
    from repro.core.session import ReconstructionSession
    from repro.events.store import load_store_metadata

    bs = load_store_metadata(corpus.store).base_station
    return ReconstructionSession(backend=IncrementalBackend(), delivery_node=bs)


def replay_stream(tr: Tracer, corpus, closes) -> dict:
    """Streaming ingest as a daemon does it: each ``(node, lines)`` source in
    daemon-sized batches through ``scan_log_bytes`` and
    ``ReconstructionSession.ingest``, with a ``refresh`` after each group of
    ``closes``.  Then one full serialization, and ``reconstruct_group`` per
    packet on the store for the per-packet timings."""
    import repro.serve.server  # noqa: F401 - the daemon's import, outside spans
    from repro.events.codec import DecodeIssue, scan_log_bytes
    from repro.events.merge import group_by_packet
    from repro.events.store import load_store

    session = _stream_session(corpus)
    scanned = refreshed = 0
    with tr.span("door"):
        for group in closes:
            for node, lines in group:
                scanned += len(lines)
                for start in range(0, len(lines), BATCH_LINES):
                    data = "\n".join(lines[start : start + BATCH_LINES]).encode()
                    with tr.span("codec.scan"):
                        events = [
                            e for _, e in scan_log_bytes(data)
                            if not isinstance(e, DecodeIssue) and e.node == node
                        ]
                    by_node: dict = {}
                    for event in events:
                        by_node.setdefault(event.node, []).append(event)
                    with tr.span("session.ingest"):
                        session.ingest(by_node)
            with tr.span("session.refresh"):
                refreshed += len(session.refresh())
    flows = session.flows()
    body = serialize(tr, flows)
    groups = group_by_packet(load_store(corpus.store).logs)
    _, events = per_packet(tr, _stream_session(corpus), groups)
    return {
        "body": body, "flows": flows, "reconstructions": refreshed,
        "scanned": scanned, "events": events,
    }


def replay_backfill(tr: Tracer, corpus) -> dict:
    """Every source pushed in turn, refreshing at each source close."""
    from repro.serve.ingest import tail_node_bind

    return replay_stream(tr, corpus, [
        [(tail_node_bind(corpus.store / name), lines)]
        for name, lines in corpus.node_lines().items()
    ])


def replay_live(tr: Tracer, corpus) -> dict:
    """Every collection round ingested, then one refresh per round."""
    import workloads

    rounds = workloads.live_rounds(corpus)
    return replay_stream(tr, corpus, [list(r.chunks.values()) for r in rounds])


def replay_query(tr: Tracer, corpus, seed: int, requests: int) -> dict:
    """The serialization behind the ``query`` mix's first ``requests``."""
    import workloads
    from repro.core.serialize import dumps_canonical, flow_to_dict, report_to_dict
    from repro.core.session import ReconstructionSession
    from repro.events.packet import PacketKey
    from repro.events.store import load_store
    from repro.serve.http import build_summary

    loaded = load_store(corpus.store)
    session = ReconstructionSession(delivery_node=loaded.metadata.base_station)
    result = session.run(loaded.logs)
    flows, reports = result.flows, result.reports
    plans = [workloads.query_plan(corpus, seed, c) for c in range(2)]
    paths = [p for pair in zip(*plans) for p in pair]
    body = b""
    with tr.span("door"):
        for i in range(requests):
            route, _, arg = paths[i % len(paths)].strip("/").partition("/")
            if route == "flows":
                body = serialize(tr, flows)
                continue
            with tr.span("serialize.point"):
                if route == "flow":
                    dumps_canonical(flow_to_dict(flows[PacketKey.parse(arg)]))
                elif route == "report":
                    dumps_canonical(report_to_dict(reports[PacketKey.parse(arg)]))
                else:
                    dumps_canonical(build_summary(
                        reports, pending=0, batches_ingested=0, lines_ingested=0,
                        sources=0, metadata=loaded.metadata,
                    ))
    if not body:
        body = serialize(tr, flows)
    return {"body": body, "flows": flows, "reconstructions": 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced layer replay")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--requests", type=int, default=0)
    args = parser.parse_args(argv)

    import harness

    corpus = harness.corpus(args.workload, args.seed)
    tr = Tracer()
    if args.workload == "analyze":
        result = replay_analyze(tr, corpus, harness.scratch_dir("replay") / "flows.json")
    elif args.workload == "backfill":
        result = replay_backfill(tr, corpus)
    elif args.workload == "live":
        result = replay_live(tr, corpus)
    else:
        result = replay_query(tr, corpus, args.seed, args.requests)
    harness.cleanup_scratch()
    record = {
        "spans": tr.spans,
        "flows_ok": harness.sha256(result["body"]) == corpus.flows_sha256,
        "flows_bytes": len(result["body"]),
        "reconstructions": result["reconstructions"],
        "scanned_lines": result.get("scanned", 0),
        "events": result.get("events", 0),
        **_flow_counts(result["flows"]),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
