"""The consumer/session/checkpoint core of a serve daemon, as one unit.

:class:`ShardWorker` is the piece of the old monolithic server that owns
reconstruction state: one streaming
:class:`~repro.core.session.ReconstructionSession` over an
:class:`~repro.core.backends.incremental.IncrementalBackend`, the
:class:`~repro.serve.ingest.SourceBook` of per-source offsets, and the
checkpoint write/restore path.  It is deliberately loop-agnostic — every
method is synchronous — so the same class backs both deployment shapes:

- ``--shards 1``: :class:`~repro.serve.server.RefillServer` composes one
  worker in-process, bit-compatible with the pre-cluster daemon;
- ``--shards N``: each worker runs inside its own **subprocess** (a full
  ``RefillServer`` with private listeners, registry, and flight recorder),
  spawned from :func:`run_shard` with a picklable :class:`ShardSpec`.
  Subprocesses, not threads: reconstruction is CPU-bound Python, so only
  separate interpreters scale it past one core.

Shard subprocesses do not own coordination: they ignore ``SIGINT`` (a
terminal Ctrl-C reaches the whole process group; the router decides what
to do with it) and leave ``SIGTERM`` at its default — an abrupt kill writes
*nothing*, which is exactly right, because a shard checkpoint newer than
the cluster manifest would desynchronize resume offsets from shard state.
Shard checkpoints happen on the router's command (``POST
/checkpoint?epoch=N``) against epoch-stamped files, and the router's
manifest swap commits them (see :mod:`repro.serve.checkpoint`).
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.backends.incremental import IncrementalBackend
from repro.core.session import ReconstructionSession
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.structlog import configure_logging, get_logger
from repro.obs.tracing import traced, use_trace
from repro.serve.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    shard_checkpoint_path,
)
from repro.serve.config import ServeConfig
from repro.serve.ingest import ANONYMOUS_SOURCE, IngestItem, SourceBook, decode_lines

_log = get_logger("refill.serve.shard")

#: Environment variable naming a directory where shard subprocesses report
#: leaked asyncio tasks at loop close; set by the test suite's task-ledger
#: fixture so the leak check reaches across the process boundary.
TASK_LEDGER_ENV = "REFILL_TASK_LEDGER_DIR"


@dataclass(frozen=True)
class ShardSpec:
    """Picklable description of one shard subprocess (spawn-safe)."""

    #: This worker's index in ``range(shards)``.
    index: int
    #: Cluster width (the hash modulus).
    shards: int
    #: The cluster manifest path (``None`` → checkpointing disabled).
    manifest_path: Optional[str]
    #: Exact shard checkpoint file to restore, or ``None`` for a fresh start.
    restore_file: Optional[str]
    delivery_node: Optional[int]
    batch_size: int
    flush_interval: float
    ingest_queue_batches: int
    ingest_batch_lines: int
    trace_capacity: int

    def to_config(self) -> ServeConfig:
        """The subprocess server's config: loopback listeners on OS-assigned
        ports, no store, no periodic checkpoint timer (epochs are written on
        the router's command only)."""
        return ServeConfig(
            store=None,
            host="127.0.0.1",
            port=0,
            http_host="127.0.0.1",
            http_port=0,
            checkpoint_path=self.restore_file,
            checkpoint_interval=0.0,
            flush_interval=self.flush_interval,
            ingest_queue_batches=self.ingest_queue_batches,
            ingest_batch_lines=self.ingest_batch_lines,
            batch_size=self.batch_size,
            delivery_node=self.delivery_node,
            trace_capacity=self.trace_capacity,
        )

    def epoch_path(self, epoch: int) -> pathlib.Path:
        """Where this shard's epoch-``epoch`` checkpoint file lives."""
        assert self.manifest_path is not None, "checkpointing is not configured"
        return shard_checkpoint_path(self.manifest_path, self.index, epoch)


class ShardWorker:
    """Session + source book + checkpointing for one shard (or the whole
    daemon at ``--shards 1``); loop-agnostic, single-writer by contract."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.book = SourceBook()
        self.session = ReconstructionSession(
            backend=IncrementalBackend(),
            delivery_node=config.resolved_delivery_node(),
            batch_size=config.batch_size,
        )
        #: Where the *next* checkpoint goes.  Coordinated epoch writes
        #: retarget this, so a later graceful self-write is an idempotent
        #: rewrite of the current epoch file, never a new state on disk.
        self.checkpoint_path: Optional[pathlib.Path] = config.resolved_checkpoint()
        self._dirty_since_checkpoint = False
        self._started_at = time.monotonic()
        #: ``time.monotonic()`` of the last checkpoint write (age gauge).
        self._last_checkpoint_at: Optional[float] = None
        #: Queue wait of the most recently ingested batch (lag gauge).
        self._last_queue_wait = 0.0

    # ------------------------------------------------------------------ #
    # checkpoint / restore

    def restore(self) -> bool:
        """Adopt the configured checkpoint if one exists on disk."""
        path = self.checkpoint_path
        if path is None or not path.exists():
            return False
        checkpoint = load_checkpoint(path)
        self.session.restore_state(checkpoint.session_state)
        self.book.restore(
            checkpoint.offsets, checkpoint.corrupt_lines, checkpoint.lines_ingested
        )
        _log.info(
            "serve.restored",
            checkpoint=str(path),
            packets=len(self.session.packets()),
            sources=len(self.book.ingested),
            lines=self.book.lines_ingested,
        )
        return True

    def write_checkpoint(
        self, path: Optional[pathlib.Path] = None
    ) -> Optional[pathlib.Path]:
        """Write a checkpoint now; ``None`` when no path is configured.

        An explicit ``path`` (a coordinated epoch file) becomes the new
        :attr:`checkpoint_path`, so every later write lands there too.
        """
        target = path if path is not None else self.checkpoint_path
        if target is None:
            return None
        started = time.perf_counter()
        with traced("serve.checkpoint"):
            checkpoint = Checkpoint(
                session_state=self.session.export_state(),
                offsets=dict(self.book.ingested),
                corrupt_lines=dict(self.book.corrupt),
                lines_ingested=self.book.lines_ingested,
            )
            save_checkpoint(target, checkpoint)
        registry = get_registry()
        registry.counter("serve.checkpoints").inc()
        registry.gauge("serve.checkpoint.duration_seconds").set(
            time.perf_counter() - started
        )
        self.checkpoint_path = target
        self._last_checkpoint_at = time.monotonic()
        self._dirty_since_checkpoint = False
        _log.debug("serve.checkpointed", path=str(target))
        return target

    def checkpoint_age(self) -> float:
        """Seconds since the last checkpoint (since start-up if none yet)."""
        anchor = (
            self._last_checkpoint_at
            if self._last_checkpoint_at is not None
            else self._started_at
        )
        return max(0.0, time.monotonic() - anchor)

    # ------------------------------------------------------------------ #
    # ingest (called only from the owning server's consumer/shutdown path)

    def ingest_item(self, item: IngestItem) -> None:
        n = len(item.lines)
        if not n:
            # a readiness probe's refresh marker carries no lines: it must
            # not touch the book or dirty the checkpoint
            return
        registry = get_registry()
        if item.enqueued_at and registry.enabled:
            wait = time.perf_counter() - item.enqueued_at
            self._last_queue_wait = wait
            registry.histogram("serve.queue.wait.seconds").observe(wait)
            registry.gauge("serve.ingest.lag_seconds").set(wait)
        # the batch's spans attribute to the trace that produced it — the
        # ids ride entirely outside the decoded lines
        with use_trace(item.trace_id):
            with traced("serve.decode", source=item.source or ANONYMOUS_SOURCE):
                events_by_node, corrupt = decode_lines(item.lines, item.node_bind)
            if events_by_node:
                with traced("serve.ingest.batch"):
                    self.session.ingest(events_by_node)
        source = item.source if item.source is not None else ANONYMOUS_SOURCE
        self.book.lines_ingested += n
        if item.source is not None:
            self.book.ingested[item.source] = (
                self.book.ingested.get(item.source, 0) + n
            )
        registry.counter("serve.ingest.lines").inc(n)
        if corrupt:
            self.book.corrupt[source] = self.book.corrupt.get(source, 0) + corrupt
            registry.counter("codec.corrupt_lines", source=source).inc(corrupt)
        self._dirty_since_checkpoint = True

    def drain_queue(self, queue: "asyncio.Queue[IngestItem]") -> None:
        """Ingest everything queued right now (shutdown; consumer stopped)."""
        while not queue.empty():
            self.ingest_item(queue.get_nowait())

    # ------------------------------------------------------------------ #
    # state probes

    def readiness(
        self, queue: "asyncio.Queue[IngestItem]"
    ) -> tuple[bool, dict[str, Any]]:
        """Whether ingest is drained and every flow is fresh.

        The detail dict mirrors the pipeline-health gauges so a probe (or a
        human with ``curl``) sees the same numbers Prometheus scrapes: line
        lag, the dirty set, queue depth/saturation, the last batch's queue
        wait, and checkpoint age.
        """
        lag = self.book.lag_lines()
        pending = self.session.pending
        queued = queue.qsize()
        ready = lag == 0 and pending == 0 and queued == 0
        return ready, {
            "ready": ready,
            "lag_lines": lag,
            "pending_packets": pending,
            "queued_batches": queued,
            "queue_saturation": queued / queue.maxsize,
            "lag_seconds": 0.0 if ready else self._last_queue_wait,
            "checkpoint_age_seconds": self.checkpoint_age(),
        }

    def update_gauges(self, queue: "asyncio.Queue[IngestItem]") -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        lag = self.book.lag_lines()
        queued = queue.qsize()
        registry.gauge("serve.ingest.lag_lines").set(lag)
        registry.gauge("serve.ingest.pending_packets").set(self.session.pending)
        registry.gauge("serve.ingest.queue_batches").set(queued)
        registry.gauge("serve.ingest.queue_saturation").set(queued / queue.maxsize)
        if lag == 0 and queued == 0:
            # drained: the last batch's wait no longer describes the present
            self._last_queue_wait = 0.0
            registry.gauge("serve.ingest.lag_seconds").set(0.0)
        registry.gauge("serve.checkpoint.age_seconds").set(self.checkpoint_age())
        now = time.time()
        for source, seen in self.book.last_seen.items():
            registry.gauge("serve.source.staleness_seconds", source=source).set(
                max(0.0, now - seen)
            )


# ---------------------------------------------------------------------- #
# the subprocess entry point


def run_shard(spec: ShardSpec, conn: Any) -> int:
    """Run one shard server in this (spawned) process.

    ``conn`` is the router's end-of-pipe: one message is sent through it —
    the bound listener ports once the server is up, or an ``error`` payload
    if start-up failed — then it is closed.  The router drives everything
    else over the normal ingest/query protocols.
    """
    from repro.serve.server import RefillServer  # deferred: import cycle

    configure_logging(level="warning")
    # Coordination belongs to the router: a group-wide Ctrl-C must not make
    # shards race it to a graceful exit, and SIGTERM stays an abrupt kill so
    # a dying shard never writes a checkpoint newer than the manifest.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ledger_dir = os.environ.get(TASK_LEDGER_ENV)
    if ledger_dir:
        _install_child_task_ledger(ledger_dir)
    server = RefillServer(spec.to_config(), registry=MetricsRegistry(), shard=spec)

    def _ready(running: "RefillServer") -> None:
        conn.send(
            {
                "shard": spec.index,
                "ingest_port": running.tcp_port,
                "http_port": running.http_port,
            }
        )

    try:
        code = server.run(ready=_ready)
    except BaseException as exc:
        try:
            conn.send({"shard": spec.index, "error": repr(exc)})
        except (OSError, ValueError):
            pass
        raise
    finally:
        conn.close()
    return code


def _install_child_task_ledger(report_dir: str) -> None:
    """Mirror the test suite's task-leak check inside a shard subprocess.

    The parent-process fixture monkeypatches ``asyncio.runners`` to fail a
    test when a loop closes with undone tasks; that patch cannot reach a
    spawned child, so the child wraps the same hook itself and *writes a
    report file* the fixture collects after the cluster stops.
    """
    import asyncio.runners as runners

    real = runners._cancel_all_tasks

    def checking(loop: asyncio.AbstractEventLoop) -> None:
        leaked = [
            task for task in asyncio.all_tasks(loop) if not task.done()
        ]
        if leaked:
            report = {
                "pid": os.getpid(),
                "tasks": sorted(repr(task) for task in leaked),
            }
            path = pathlib.Path(report_dir) / f"shard-leaks-{os.getpid()}.json"
            path.write_text(json.dumps(report, indent=2, sort_keys=True))
        real(loop)

    runners._cancel_all_tasks = checking
