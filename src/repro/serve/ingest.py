"""Server-side ingest: connections, file tails, and the bounded queue.

Readers (one task per connection, one per tailed file) frame bytes into
complete lines with :class:`~repro.events.codec.LineAssembler` and enqueue
them as :class:`IngestItem` batches on a *bounded* :class:`asyncio.Queue`.
A connection reader ships every framed chunk at once (split at
``ingest_batch_lines``): it never holds complete lines waiting for more,
so a link that stays open — a router's shard link, a node that keeps its
socket — delivers each round as soon as it lands.  A full queue blocks the
reader coroutine, which stops draining its socket — kernel buffers fill,
the TCP window closes, and the producer is throttled instead of the daemon
buffering unboundedly.  The single consumer (in
:mod:`repro.serve.server`) decodes batches with the shared tolerant scanner
and feeds the reconstruction session; decode work deliberately stays out of
the readers so backpressure reflects *reconstruction* capacity, not parse
capacity.

Offsets bookkeeping lives in :class:`SourceBook`: ``received`` counts lines
accepted off the wire (what a reconnecting ``HELLO`` must skip), and
``ingested`` counts lines the consumer has fed to the session (what a
checkpoint may safely record).  The gap between the two is exactly the
queue — the served ``serve.ingest.lag_lines`` gauge.
"""

from __future__ import annotations

import asyncio
import pathlib
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.events.codec import DecodeIssue, LineAssembler, scan_log_text
from repro.events.event import Event
from repro.events.store import read_complete_lines
from repro.obs.recorder import get_recorder
from repro.obs.structlog import get_logger
from repro.obs.tracing import current_trace_id, mint_trace_id, set_trace_id, traced
from repro.serve import protocol
from repro.serve._compat import timeout
from repro.serve.config import ServeConfig

_log = get_logger("refill.serve.ingest")

#: Source name used for connections that never sent a ``HELLO``.
ANONYMOUS_SOURCE = "(anonymous)"

#: Shard file names carry their node id; tails of such files bind to it.
_SHARD_NAME = re.compile(r"^node_(\d+)\.log$")


@dataclass
class IngestItem:
    """One queued batch of complete lines from one source."""

    source: Optional[str]
    node_bind: Optional[int]
    lines: list[str]
    #: Trace id of the connection/tail that produced the batch (metadata
    #: only — carried so the consumer's decode/ingest spans attribute to
    #: the originating push; never consulted when decoding the lines).
    trace_id: Optional[str] = None
    #: ``time.perf_counter()`` at enqueue; the consumer's dequeue observes
    #: the difference as ``serve.queue.wait.seconds``.
    enqueued_at: float = 0.0
    #: Refresh requested by a readiness probe: an empty marker the probe
    #: enqueues when the daemon is drained but flows are stale, so the
    #: consumer refreshes now instead of waiting out a ``flush_interval``
    #: idle gap.  Readers never set it — a closing source only enqueues.
    flush: bool = False


@dataclass
class SourceBook:
    """Per-source line accounting (see module docstring)."""

    #: Lines ingested into the session — the checkpointable truth.
    ingested: dict[str, int] = field(default_factory=dict)
    #: Lines accepted off the wire — what HELLO reports to clients.
    received: dict[str, int] = field(default_factory=dict)
    #: Lines the tolerant scanner (or a node binding) rejected.
    corrupt: dict[str, int] = field(default_factory=dict)
    #: Total ingested lines across every source, anonymous included.
    lines_ingested: int = 0
    #: Wall time a source last delivered lines (runtime-only — never
    #: checkpointed; feeds the per-source staleness gauges).
    last_seen: dict[str, float] = field(default_factory=dict)

    def restore(self, offsets: dict[str, int], corrupt: dict[str, int],
                lines_ingested: int) -> None:
        """Adopt checkpointed offsets: received restarts at ingested."""
        self.ingested = dict(offsets)
        self.received = dict(offsets)
        self.corrupt = dict(corrupt)
        self.lines_ingested = lines_ingested

    def lag_lines(self) -> int:
        """Lines accepted but not yet ingested (the queue's content)."""
        received = sum(self.received.values())
        tracked = sum(
            n for source, n in self.ingested.items() if source in self.received
        )
        return max(0, received - tracked)


def decode_lines(
    lines: list[str], node_bind: Optional[int]
) -> tuple[dict[int, list[Event]], int]:
    """Tolerantly decode a line batch into per-node ordered events.

    Returns ``(events_by_node, corrupt_count)``.  With a node binding,
    lines decoding to a different node count as corrupt and are dropped —
    the exact rule :func:`repro.events.store.load_store` applies to
    misfiled lines, which is what keeps served flows byte-identical to a
    batch run over the same shard files.
    """
    events_by_node: dict[int, list[Event]] = {}
    corrupt = 0
    for _lineno, decoded in scan_log_text("\n".join(lines)):
        if isinstance(decoded, DecodeIssue):
            corrupt += 1
            continue
        if node_bind is not None and decoded.node != node_bind:
            corrupt += 1
            continue
        events_by_node.setdefault(decoded.node, []).append(decoded)
    return events_by_node, corrupt


def tail_node_bind(path) -> Optional[int]:
    """Node binding for a tailed file (``node_NNNN.log`` names bind)."""
    match = _SHARD_NAME.match(pathlib.Path(path).name)
    return int(match.group(1)) if match else None


class IngestHub:
    """Owns the bounded queue and the reader-side protocol."""

    def __init__(self, config: ServeConfig, book: SourceBook) -> None:
        self.config = config
        self.book = book
        self.queue: asyncio.Queue[IngestItem] = asyncio.Queue(
            maxsize=config.ingest_queue_batches
        )
        self.connections_total = 0
        #: Live connection-reader tasks; shutdown cancels them so a reader
        #: parked on a full queue (or an idle socket) cannot stall the drain.
        self.reader_tasks: set[asyncio.Task] = set()
        #: Sources with an active HELLO'd connection — one pusher at a time,
        #: or two clients handed the same offset would double-ingest.
        self._active_sources: set[str] = set()

    def cancel_readers(self) -> list[asyncio.Task]:
        """Cancel every live connection reader; returns the tasks to reap."""
        tasks = [task for task in self.reader_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        return tasks

    # ------------------------------------------------------------------ #
    # connection reader

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self.reader_tasks.add(task)
        try:
            await self._read_connection(reader, writer)
        finally:
            if task is not None:
                self.reader_tasks.discard(task)

    async def _read_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One ingest connection: optional HELLO, data lines, optional BYE.

        Any exception is contained to this connection — a hostile or broken
        peer never takes the daemon down.
        """
        self.connections_total += 1
        assembler = LineAssembler()
        source: Optional[str] = None
        node_bind: Optional[int] = None
        accepted = 0
        first_line = True
        #: Framed data lines not yet shipped; empty at every await, so
        #: concurrently-running coroutines (metrics, lag gauges, HELLO
        #: offsets) observe exactly the per-line ``book.received`` counts.
        pending: list[str] = []

        async def ship() -> None:
            """Count ``pending`` as received, then queue it.  A cancelled
            put (shutdown) drops the rest: the checkpoint records only
            *ingested* offsets, so a reconnecting client resends them."""
            nonlocal pending
            if pending:
                if source is not None:
                    self.book.received[source] = (
                        self.book.received.get(source, 0) + len(pending)
                    )
                batch, pending = pending, []
                await self._enqueue(source, node_bind, batch)

        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break  # disconnect; partial tail (if any) is discarded
                with traced("serve.frame"):
                    framed = list(assembler.feed(chunk))
                if framed and source is not None:
                    # once per chunk, not per line — staleness needs chunk
                    # granularity and time.time() is hot-loop poison
                    # refill: no-cc010 -- one read per network chunk, not per line; the per-line form was the 34% regression
                    self.book.last_seen[source] = time.time()
                for line in framed:
                    # control_word strips and splits every line; a data line
                    # can only be a control word if it is the first line
                    # (HELLO) or literally contains "BYE", so skip the rest
                    if first_line or "BYE" in line:
                        word = protocol.control_word(line)
                    else:
                        word = None
                    if word == protocol.HELLO and first_line:
                        first_line = False
                        try:
                            hello = protocol.parse_hello(line)
                        except ValueError as exc:
                            writer.write(f"ERR {exc}\n".encode())
                            await writer.drain()
                            return
                        if hello.source in self._active_sources:
                            # a second pusher would get the same offset and
                            # double-ingest the suffix — refuse it outright
                            writer.write(
                                f"ERR source {hello.source} already has an"
                                " active connection\n".encode()
                            )
                            await writer.drain()
                            return
                        self._active_sources.add(hello.source)
                        # from here `source` marks ownership: the finally
                        # below releases exactly what this connection claimed
                        source, node_bind = hello.source, hello.node
                        # the trace id is task-local: this reader's spans
                        # and batches attribute to it, siblings are unaffected
                        set_trace_id(hello.trace)
                        recorder = get_recorder()
                        if recorder is not None:
                            recorder.record_event(
                                "ingest.hello",
                                trace_id=hello.trace,
                                source=source,
                                offset=self.book.received.get(source, 0),
                            )
                        offset = self.book.received.get(source, 0)
                        writer.write(
                            (protocol.format_ok(offset=offset) + "\n").encode()
                        )
                        await writer.drain()
                        continue
                    first_line = False
                    if word == protocol.BYE:
                        await ship()
                        writer.write(
                            (protocol.format_ok(accepted=accepted) + "\n").encode()
                        )
                        await writer.drain()
                        return
                    pending.append(line)
                    accepted += 1
                # ship the whole chunk now: a link that stays open may send
                # nothing more for a while, and these lines are complete
                await ship()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # mid-stream disconnects are normal operation
        except Exception as exc:  # noqa: BLE001 - isolate hostile peers
            _log.warning("ingest.connection-error", error=str(exc))
        finally:
            if source is not None:
                self._active_sources.discard(source)
            await ship()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _enqueue(
        self, source: Optional[str], node_bind: Optional[int], lines: list[str]
    ) -> None:
        """Queue ``lines`` as batches of at most ``ingest_batch_lines``."""
        limit = self.config.ingest_batch_lines
        for start in range(0, len(lines), limit):
            item = IngestItem(
                source,
                node_bind,
                lines[start : start + limit],
                trace_id=current_trace_id(),
                enqueued_at=time.perf_counter(),
            )
            # the span times backpressure: a full queue parks this reader here
            with traced("serve.enqueue"):
                await self.queue.put(item)

    # ------------------------------------------------------------------ #
    # file tailing

    async def tail_file(self, path, stop: asyncio.Event) -> None:
        """Poll ``path`` for newly completed lines until ``stop`` is set.

        The source id is the file's name; offsets make restarts resume at
        the checkpointed line, and a vanished/unreadable file just pauses
        the tail (deployments rotate and re-ship logs).
        """
        path = pathlib.Path(path)
        source = path.name
        node_bind = tail_node_bind(path)
        # one trace spans the tail session — every batch this task enqueues
        # attributes to it, exactly like a pushing client's HELLO trace
        set_trace_id(mint_trace_id())
        recorder = get_recorder()
        if recorder is not None:
            recorder.record_event(
                "ingest.tail.start", trace_id=current_trace_id(), source=source
            )
        while not stop.is_set():
            offset = self.book.received.get(source, 0)
            try:
                lines = read_complete_lines(path, start_line=offset)
            except OSError:
                lines = []
            if lines:
                self.book.received[source] = offset + len(lines)
                # refill: no-cc010 -- once per poll interval when new lines landed, not per line
                self.book.last_seen[source] = time.time()
                await self._enqueue(source, node_bind, lines)
            try:
                async with timeout(self.config.tail_interval):
                    await stop.wait()
            except TimeoutError:
                continue
