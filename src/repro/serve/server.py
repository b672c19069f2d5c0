"""The live reconstruction daemon: ingest + checkpoint + query in one loop.

:class:`RefillServer` wires the pieces together around one
:class:`~repro.serve.shard.ShardWorker` (the session/book/checkpoint core):

- **readers** (:mod:`repro.serve.ingest`) frame connection/tail bytes into
  line batches on a bounded queue;
- a single **consumer** task decodes batches with the shared tolerant
  scanner, feeds the worker's session, refreshes dirty flows after an idle
  gap or when the readiness probe asks, and writes periodic checkpoints;
- the **query API** (:mod:`repro.serve.http`) answers from the same session
  (auto-refreshing, so a query never sees stale flows).

Everything runs on one event loop in one thread: session mutations happen
only inside synchronous stretches of the consumer or a handler, so state is
consistent at every ``await`` without locks.  Reconstruction is CPU work —
a query issued mid-refresh waits; per-packet flows are tiny, so stalls are
bounded by one batch, not the corpus.

The same class is both deployment shapes' workhorse: the standalone
``refill serve`` daemon (``shard=None``), and — constructed by
:func:`repro.serve.shard.run_shard` with a :class:`ShardSpec` — one worker
subprocess of the sharded cluster (:mod:`repro.serve.router`).  A shard
instance differs only in coordination: it installs no signal handlers (the
router owns shutdown) and honors ``POST /checkpoint?epoch=N`` by writing
the epoch-stamped per-shard file instead of a standalone checkpoint.

Graceful shutdown (SIGTERM/SIGINT or ``POST /shutdown``): stop accepting,
cancel live connections and tails, drain the queued batches into the
session (concurrently with reaping, so a reader parked on a full queue can
always finish), refresh, checkpoint, exit.
Evidence still in a connection's socket buffer is *not* consumed — that is
what per-source offsets are for: the restarted server tells each
reconnecting source how much to skip, so nothing is lost and nothing is
reprocessed.
"""

from __future__ import annotations

import asyncio
import pathlib
import signal
import time
from typing import Any, Callable, Optional

from repro.core.serialize import (
    dumps_canonical,
    flow_to_dict,
    flows_to_json,
    report_to_dict,
    reports_to_json,
)
from repro.events.packet import PacketKey
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    use_registry,
)
from repro.obs.structlog import get_logger
from repro.obs.tracing import traced
from repro.serve._compat import install_streams_cancel_filter, timeout
from repro.serve.config import ServeConfig
from repro.serve.http import QueryApi, build_summary
from repro.serve.ingest import IngestHub, IngestItem, SourceBook
from repro.serve.shard import ShardSpec, ShardWorker

_log = get_logger("refill.serve")

#: Every metric family the daemon emits — the doc-coverage test in
#: ``tests/stress/test_docs.py`` holds ``docs/OBSERVABILITY.md`` to this
#: list, so a new gauge cannot ship undocumented.
SERVE_METRIC_NAMES = (
    "serve.ingest.lines",
    "serve.ingest.lag_lines",
    "serve.ingest.lag_seconds",
    "serve.ingest.pending_packets",
    "serve.ingest.queue_batches",
    "serve.ingest.queue_saturation",
    "serve.queue.wait.seconds",
    "serve.source.staleness_seconds",
    "serve.checkpoint.age_seconds",
    "serve.checkpoint.duration_seconds",
    "serve.checkpoints",
    "serve.requests",
    "serve.request.seconds",
    "serve.shard.up",
    "serve.shard.lines",
)


class RefillServer:
    """A long-running reconstruction service over one streaming session."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        registry: Optional[MetricsRegistry] = None,
        shard: Optional[ShardSpec] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = FlightRecorder(config.trace_capacity)
        self.metadata = config.metadata()
        #: ``None`` for the standalone daemon; the spec when this server is
        #: one subprocess worker of a sharded cluster.
        self.shard = shard
        self.worker = ShardWorker(config)
        self.hub = IngestHub(config, self.worker.book)
        self.api = QueryApi(self)
        #: Bound listener ports, published once the listeners are up.
        self.tcp_port: Optional[int] = None
        self.http_port: Optional[int] = None
        #: Whether start-up restored state from an existing checkpoint.
        self.restored = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # the worker's state, re-exported (tests and embedders use these)

    @property
    def session(self):
        return self.worker.session

    @property
    def book(self) -> SourceBook:
        return self.worker.book

    def restore(self) -> bool:
        """Adopt the configured checkpoint if one exists on disk."""
        return self.worker.restore()

    def write_checkpoint(self) -> Optional[pathlib.Path]:
        """Write a checkpoint now; ``None`` when no path is configured."""
        return self.worker.write_checkpoint()

    def readiness(self) -> tuple[bool, dict[str, Any]]:
        """Whether ingest is drained and every flow is fresh."""
        return self.worker.readiness(self.hub.queue)

    def listeners(self) -> list[dict[str, Any]]:
        """One descriptor per bound listener (the ``--print-ports`` shape).

        Each entry carries a unique ``listener`` name plus enough to connect
        (``port`` for TCP, ``path`` for unix sockets); harnesses parse the
        emitted lines into a name-keyed dict without positional guessing.
        """
        out: list[dict[str, Any]] = [
            {
                "listener": "ingest",
                "transport": "tcp",
                "host": self.config.host,
                "port": self.tcp_port,
            }
        ]
        if self.config.unix_socket is not None:
            out.append(
                {
                    "listener": "ingest-unix",
                    "transport": "unix",
                    "path": self.config.unix_socket,
                }
            )
        out.append(
            {
                "listener": "http",
                "transport": "tcp",
                "host": self.config.http_host,
                "port": self.http_port,
            }
        )
        return out

    def request_shutdown(self) -> None:
        """Trigger graceful shutdown; safe from any thread."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    # ------------------------------------------------------------------ #
    # the query surface (async so the cluster can fan out; here the answers
    # are local and immediate)

    async def api_readiness(self) -> tuple[bool, dict[str, Any]]:
        """The readiness probe, which also *requests* the pending refresh.

        Drained but stale (no lag, nothing queued, dirty packets left):
        enqueue one empty flush marker so the consumer refreshes now, and
        answer 503; the next poll sees fresh flows.  The refresh stays in
        the consumer — a push of per-node sources thus reconstructs each
        packet once, when a reader asks, not once per closing source.
        """
        ready, detail = self.readiness()
        if (
            detail["pending_packets"]
            and not detail["lag_lines"]
            and not detail["queued_batches"]
        ):
            self.hub.queue.put_nowait(IngestItem(None, None, [], flush=True))
        return ready, detail

    async def api_packets_body(self) -> str:
        return dumps_canonical(
            {"packets": [str(p) for p in self.session.packets()]}
        )

    async def api_flows_body(self) -> str:
        return dumps_canonical(flows_to_json(self.session.flows()))

    async def api_reports_body(self) -> str:
        return dumps_canonical(reports_to_json(self.session.reports()))

    async def api_packet_body(self, kind: str, packet: PacketKey) -> tuple[int, str]:
        if kind == "flow":
            flow = self.session.flow(packet)
            if flow is None:
                return 404, dumps_canonical({"error": f"unknown packet {packet}"})
            return 200, dumps_canonical(flow_to_dict(flow))
        report = self.session.report(packet)
        if report is None:
            return 404, dumps_canonical({"error": f"unknown packet {packet}"})
        return 200, dumps_canonical(report_to_dict(report))

    async def api_summary(self) -> dict[str, Any]:
        return build_summary(
            self.session.reports(),
            pending=self.session.pending,
            batches_ingested=self.session.batches_ingested,
            lines_ingested=self.book.lines_ingested,
            sources=len(self.book.ingested),
            metadata=self.metadata,
        )

    async def api_offsets(self) -> dict[str, Any]:
        book = self.book
        return {
            "offsets": dict(sorted(book.ingested.items())),
            "received": dict(sorted(book.received.items())),
            "corrupt_lines": dict(sorted(book.corrupt.items())),
            "lines_ingested": book.lines_ingested,
        }

    async def api_metrics_snapshot(self) -> MetricsSnapshot:
        return get_registry().snapshot()

    async def api_checkpoint(self, epoch: Optional[int]) -> Optional[dict[str, Any]]:
        """``POST /checkpoint``: write now; epoch targets a coordinated file.

        ``epoch`` is the cluster protocol — only a shard worker accepts it,
        writing the epoch-stamped file the router is about to commit via the
        manifest swap.  Returns the response payload, ``None`` when no
        checkpoint path is configured (→ 409).
        """
        if epoch is not None:
            if self.shard is None:
                raise ValueError("epoch checkpoints need a shard worker")
            written = self.worker.write_checkpoint(self.shard.epoch_path(epoch))
        else:
            written = self.worker.write_checkpoint()
        if written is None:
            return None
        return {"path": str(written), "packets": len(self.session.packets())}

    # ------------------------------------------------------------------ #
    # the consumer

    def _ingest_item(self, item: IngestItem) -> None:
        self.worker.ingest_item(item)

    def _drain_queue(self) -> None:
        """Ingest everything queued right now (shutdown; consumer stopped)."""
        self.worker.drain_queue(self.hub.queue)

    def _update_gauges(self) -> None:
        self.worker.update_gauges(self.hub.queue)

    async def _consume(self) -> None:
        """Single writer of session state: dequeue, decode, ingest.

        Dirty flows are refreshed on an idle gap (``flush_interval`` with
        nothing queued) and when a readiness probe's flush marker reaches
        a drained queue; queries auto-refresh on their own.  Periodic
        checkpoints piggyback on the same cadence.
        """
        interval = self.config.checkpoint_interval
        next_checkpoint = time.monotonic() + interval if interval > 0 else None
        while True:
            try:
                # timeout() (asyncio.timeout / its 3.10 backport), not
                # wait_for: wait_for wraps the get in a child task, and a
                # cancellation arriving while it reaps that child on timeout
                # is lost (bpo-42130 family) — the shutdown path then
                # deadlocks awaiting a task that never finishes
                async with timeout(self.config.flush_interval):
                    item = await self.hub.queue.get()
            except TimeoutError:
                if self.session.pending:
                    with traced("serve.refresh", pending=self.session.pending):
                        self.session.refresh()
                self._update_gauges()
            else:
                self._ingest_item(item)
                self.hub.queue.task_done()
                if (
                    item.flush
                    and self.hub.queue.empty()
                    and self.session.pending
                ):
                    # a readiness probe asked and nothing else is queued:
                    # refresh now instead of waiting out an idle gap
                    with traced("serve.refresh", pending=self.session.pending):
                        self.session.refresh()
                self._update_gauges()
            if (
                next_checkpoint is not None
                and self.worker._dirty_since_checkpoint
                and time.monotonic() >= next_checkpoint
            ):
                self.write_checkpoint()
                next_checkpoint = time.monotonic() + interval

    # ------------------------------------------------------------------ #
    # lifecycle

    async def _main(self, ready: Optional[Callable[["RefillServer"], None]]) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        install_streams_cancel_filter(loop)
        self._shutdown = asyncio.Event()
        if self.shard is None:
            # a shard subprocess takes orders from the router, not the tty
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._shutdown.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        self.restored = self.restore()

        servers: list[asyncio.AbstractServer] = []
        tcp = await asyncio.start_server(
            self.hub.handle_connection, self.config.host, self.config.port
        )
        servers.append(tcp)
        self.tcp_port = tcp.sockets[0].getsockname()[1]
        if self.config.unix_socket is not None:
            servers.append(
                await asyncio.start_unix_server(
                    self.hub.handle_connection, path=self.config.unix_socket
                )
            )
        http = await asyncio.start_server(
            self.api.handle_connection, self.config.http_host, self.config.http_port
        )
        servers.append(http)
        self.http_port = http.sockets[0].getsockname()[1]

        consumer = asyncio.create_task(self._consume())
        tails = [
            asyncio.create_task(self.hub.tail_file(path, self._shutdown))
            for path in self.config.tail
        ]
        _log.info(
            "serve.listening",
            ingest_port=self.tcp_port,
            http_port=self.http_port,
            unix_socket=self.config.unix_socket or "-",
            tails=len(tails),
            restored=self.restored,
            shard=self.shard.index if self.shard is not None else "-",
        )
        if ready is not None:
            ready(self)

        await self._shutdown.wait()
        _log.info("serve.draining", queued=self.hub.queue.qsize())
        for server in servers:
            server.close()
        # Cancel every producer and the consumer *before* reaping: a reader
        # parked in _enqueue() on a full queue can only finish once cancelled
        # or drained, and from Python 3.12.1 wait_closed() waits for
        # connection handlers — an idle connection sitting in its read
        # timeout would stall shutdown forever.
        consumer.cancel()
        for tail in tails:
            tail.cancel()
        workers = [
            consumer,
            *tails,
            *self.hub.cancel_readers(),
            *self.api.cancel_handlers(),
        ]
        pending_workers = set(workers)
        while pending_workers:
            # drain concurrently with the reap so a producer caught mid-put
            # always finds a free slot to complete its cancellation through
            _done, pending_workers = await asyncio.wait(
                pending_workers, timeout=0.05
            )
            self._drain_queue()
        for worker in workers:
            if not worker.cancelled() and worker.exception() is not None:
                _log.warning(
                    "serve.worker-error", error=str(worker.exception())
                )
        for server in servers:
            await server.wait_closed()
        # whatever the readers got onto the queue before they stopped
        self._drain_queue()
        if self.session.pending:
            with traced("serve.refresh", pending=self.session.pending):
                self.session.refresh()
        self._update_gauges()
        written = self.write_checkpoint()
        if self.config.unix_socket is not None:
            # refill: no-cc001 -- one-shot unlink on the shutdown path, after serving stopped
            pathlib.Path(self.config.unix_socket).unlink(missing_ok=True)
        self._write_final_outputs()
        _log.info(
            "serve.stopped",
            packets=len(self.session.packets()),
            lines=self.book.lines_ingested,
            checkpoint=str(written) if written else "-",
        )

    def _write_final_outputs(self) -> None:
        """Dump ``--metrics-out`` / ``--trace-out`` on graceful shutdown.

        The metrics file follows the ``refill analyze --metrics-out``
        contract exactly (sorted-key JSON snapshot plus trailing newline);
        the trace file is the flight recorder as JSON Lines, oldest first.
        """
        if self.config.metrics_out is not None:
            path = pathlib.Path(self.config.metrics_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.registry.snapshot().to_json_str() + "\n")
            _log.info("serve.metrics-written", path=str(path))
        if self.config.trace_out is not None:
            count = self.recorder.dump_jsonl(self.config.trace_out)
            _log.info(
                "serve.trace-written", path=self.config.trace_out, records=count
            )

    def run(self, ready: Optional[Callable[["RefillServer"], None]] = None) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT or ``/shutdown``.

        All instrumentation of the daemon (and of the reconstruction it
        hosts) lands in ``self.registry`` — what ``GET /metrics`` serves —
        and every completed traced span lands in ``self.recorder`` — what
        ``GET /debug/trace`` serves.  Both contexts are installed before the
        loop starts, so every task the daemon spawns inherits them.
        """
        with use_registry(self.registry), use_recorder(self.recorder):
            asyncio.run(self._main(ready))
        return 0
