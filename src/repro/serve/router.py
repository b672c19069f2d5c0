"""The sharded serve cluster: router → N shard workers → scatter-gather.

``refill serve --shards N`` (N > 1) runs this topology instead of the
monolithic daemon.  One **router** process owns the public listeners and
the client-facing protocol state — the ingest hub, the
:class:`~repro.serve.ingest.SourceBook` of resume offsets, the flight
recorder — and ``N`` **shard worker subprocesses** (each a full
:class:`~repro.serve.server.RefillServer` on private loopback ports, see
:func:`repro.serve.shard.run_shard`) own disjoint slices of reconstruction
state, partitioned by the deterministic packet hash
(:mod:`repro.serve.sharding`).

Data path.  Readers enqueue line batches exactly as in the single daemon;
the router's consumer *routes* instead of decoding: each line's ``pkt=``
token picks a shard, and the batch's slices are forwarded over persistent
per-``(source, shard)`` ingest connections speaking the ordinary wire
protocol.  Per-source ordering is preserved (one consumer, one connection
per source and shard, in-order TCP), and backpressure is end-to-end: a full
shard queue parks the forwarding ``drain()``, which parks the consumer,
which fills the router's bounded queue, which stops the reader — the
client's TCP window closes just as before.

Query path.  The shared :class:`~repro.serve.http.QueryApi` calls this
class's ``api_*`` methods, which fan out to every shard's private query
port and merge deterministically: flows/reports as canonical-key dict
unions (byte-identical to the unsharded body), summary counters summed,
``/metrics`` through :func:`repro.obs.registry.merge_shard_snapshots`
(counters summed; gauges/histograms relabeled ``shard=k``), readiness as
the min over shards *plus* the conservation check that every routed line
has reached a shard session.

Checkpoints are **coordinated**: quiesce routing (route lock + barrier on
the line-conservation invariant), have every shard write an epoch-stamped
file, then commit by atomically replacing the cluster manifest — see
:mod:`repro.serve.checkpoint` for the crash-consistency story.  A v1
single-daemon checkpoint found at the manifest path is migrated at startup
by splitting its per-packet state across shards (offsets stay on shard 0);
a manifest written for a different ``--shards`` fails fast instead of
corrupting state.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import multiprocessing.connection
import pathlib
import signal
import time
from typing import Any, Callable, Optional

from repro.core.serialize import dumps_canonical, report_from_dict
from repro.events.packet import PacketKey
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    merge_shard_snapshots,
    use_registry,
)
from repro.obs.structlog import get_logger
from repro.serve import protocol
from repro.serve._compat import install_streams_cancel_filter, timeout
from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    ClusterManifest,
    ShardMismatchError,
    gc_shard_files,
    reshard_checkpoint,
    save_checkpoint,
    save_manifest,
    shard_checkpoint_path,
)
from repro.serve.config import ServeConfig
from repro.serve.http import QueryApi, build_summary
from repro.serve.ingest import IngestHub, IngestItem, SourceBook
from repro.serve.shard import ShardSpec, run_shard
from repro.serve.sharding import shard_for_line, shard_for_packet

_log = get_logger("refill.serve.router")

#: How long a shard subprocess may take to report its listener ports.
SHARD_START_TIMEOUT = 60.0

#: Per-request deadline for router → shard query fan-out.
_SHARD_HTTP_TIMEOUT = 30.0

#: A shard's ``/readyz`` detail while the router is not yet asking for it.
_UNASKED_SHARD = {"lag_lines": 0, "pending_packets": 0, "queued_batches": 0}

#: How long a checkpoint barrier may wait for routed lines to settle.
BARRIER_TIMEOUT = 60.0


class _ShardLink:
    """Router-side handle to one shard: its ports and the persistent
    per-source forwarding connections."""

    def __init__(self, index: int, ingest_port: int, http_port: int) -> None:
        self.index = index
        self.ingest_port = ingest_port
        self.http_port = http_port
        #: One ingest connection per source (``None`` key = anonymous
        #: lines), opened lazily and kept for the router's lifetime.
        self._conns: dict[
            Optional[str], tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}

    async def send(
        self,
        source: Optional[str],
        node_bind: Optional[int],
        trace_id: Optional[str],
        lines: list[str],
    ) -> None:
        """Forward ``lines`` in order; blocks under shard backpressure."""
        conn = self._conns.get(source)
        if conn is None:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.ingest_port
            )
            if source is not None:
                hello = protocol.Hello(source=source, node=node_bind, trace=trace_id)
                writer.write((hello.format() + "\n").encode("utf-8"))
                await writer.drain()
                async with timeout(_SHARD_HTTP_TIMEOUT):
                    reply = await reader.readline()
                # The shard's offset counts *its* slice of the source and is
                # meaningless to the client — resume skipping already
                # happened at the router's edge — so only sanity-check it.
                if not reply.startswith(protocol.OK.encode()):
                    raise ConnectionError(
                        f"shard {self.index} refused source {source!r}: "
                        f"{reply.decode(errors='replace').strip()}"
                    )
            conn = self._conns[source] = (reader, writer)
        _reader, writer = conn
        writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
        await writer.drain()

    async def close(self) -> None:
        for _reader, writer in self._conns.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns.clear()


class ClusterServer:
    """The router process: public listeners, shard fan-out, coordination.

    Exposes the same embedding surface as :class:`RefillServer` (``run``,
    ``request_shutdown``, ``tcp_port``/``http_port``, ``listeners()``,
    ``restored``), so :class:`~repro.serve.runner.ServerThread` and the CLI
    drive either interchangeably.
    """

    def __init__(
        self, config: ServeConfig, *, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if config.shards < 1:
            raise ValueError("shards must be positive")
        self.config = config
        self.shards = config.shards
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = FlightRecorder(config.trace_capacity)
        self.metadata = config.metadata()
        self.book = SourceBook()
        self.hub = IngestHub(config, self.book)
        self.api = QueryApi(self)
        self.tcp_port: Optional[int] = None
        self.http_port: Optional[int] = None
        self.restored = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._route_lock: Optional[asyncio.Lock] = None
        self._manifest_path = config.resolved_checkpoint()
        self._manifest: Optional[ClusterManifest] = None
        self._epoch = 0
        self._specs: list[ShardSpec] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        self._links: list[_ShardLink] = []
        #: Lines forwarded per shard (feeds ``serve.shard.lines{shard=}``).
        self._routed: list[int] = [0] * self.shards
        self._dirty_since_checkpoint = False
        self._degraded = False
        self._started_at = time.monotonic()
        self._last_checkpoint_at: Optional[float] = None
        self._last_queue_wait = 0.0
        self._final_snapshot: Optional[MetricsSnapshot] = None

    # ------------------------------------------------------------------ #
    # checkpoint layout (sync; runs before the loop starts)

    def _prepare_restore(self) -> None:
        """Adopt (or migrate) the cluster checkpoint at the manifest path."""
        path = self._manifest_path
        if path is None or not path.exists():
            return
        data = json.loads(path.read_text())
        if data.get("version") == CHECKPOINT_VERSION:
            manifest = self._migrate_v1(path, Checkpoint.from_json(data))
        else:
            manifest = ClusterManifest.from_json(data)
            if manifest.shards != self.shards:
                raise ShardMismatchError(
                    f"checkpoint manifest {path} was written by --shards "
                    f"{manifest.shards}, not --shards {self.shards}; restart "
                    f"with --shards {manifest.shards}, or rebalance offline "
                    "with repro.serve.checkpoint.reshard_manifest()"
                )
            for name in manifest.shard_files:
                if not (path.parent / name).exists():
                    raise ValueError(
                        f"cluster manifest {path} names missing shard file "
                        f"{name!r}; restore aborted"
                    )
        self._manifest = manifest
        self._epoch = manifest.epoch
        self.restored = True

    def _migrate_v1(self, path: pathlib.Path, v1: Checkpoint) -> ClusterManifest:
        """Split a single-daemon checkpoint into this cluster's epoch 1."""
        parts = reshard_checkpoint(v1, self.shards)
        files = []
        for index, part in enumerate(parts):
            target = shard_checkpoint_path(path, index, 1)
            save_checkpoint(target, part)
            files.append(target.name)
        manifest = ClusterManifest(
            shards=self.shards,
            epoch=1,
            offsets=dict(v1.offsets),
            lines_routed=v1.lines_ingested,
            shard_files=tuple(files),
        )
        save_manifest(path, manifest)
        gc_shard_files(path, manifest)
        _log.info(
            "cluster.resharded-v1",
            checkpoint=str(path),
            shards=self.shards,
            lines=v1.lines_ingested,
        )
        return manifest

    # ------------------------------------------------------------------ #
    # shard subprocess lifecycle (sync; spawn before / join after the loop)

    def _spawn_shards(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        conns: list[multiprocessing.connection.Connection] = []
        for index in range(self.shards):
            restore = None
            if self._manifest is not None:
                assert self._manifest_path is not None
                restore = str(
                    self._manifest_path.parent / self._manifest.shard_files[index]
                )
            spec = ShardSpec(
                index=index,
                shards=self.shards,
                manifest_path=(
                    str(self._manifest_path)
                    if self._manifest_path is not None
                    else None
                ),
                restore_file=restore,
                delivery_node=self.config.resolved_delivery_node(),
                batch_size=self.config.batch_size,
                flush_interval=self.config.flush_interval,
                ingest_queue_batches=self.config.ingest_queue_batches,
                ingest_batch_lines=self.config.ingest_batch_lines,
                trace_capacity=self.config.trace_capacity,
            )
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=run_shard,
                args=(spec, child_conn),
                name=f"refill-shard-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._specs.append(spec)
            self._procs.append(proc)
            conns.append(parent_conn)
        for index, conn in enumerate(conns):
            try:
                if not conn.poll(SHARD_START_TIMEOUT):
                    raise RuntimeError(
                        f"shard {index} did not report its ports within "
                        f"{SHARD_START_TIMEOUT:.0f}s"
                    )
                msg = conn.recv()
            finally:
                conn.close()
            if "error" in msg:
                raise RuntimeError(f"shard {index} failed to start: {msg['error']}")
            self._links.append(
                _ShardLink(index, msg["ingest_port"], msg["http_port"])
            )
            _log.info(
                "cluster.shard-up",
                shard=index,
                ingest_port=msg["ingest_port"],
                http_port=msg["http_port"],
            )

    def _stop_shard_processes(self) -> None:
        """Reap shard subprocesses after the loop exited (blocking is fine
        here — nothing else is running in this process anymore)."""
        for index, proc in enumerate(self._procs):
            proc.join(timeout=10.0)
            if proc.is_alive():
                _log.warning("cluster.shard-kill", shard=index)
                proc.terminate()
                proc.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # shard HTTP fan-out

    async def _shard_request(
        self, link: _ShardLink, method: str, path: str
    ) -> tuple[int, bytes]:
        """One HTTP/1.1 request against a shard's private query listener."""
        reader, writer = await asyncio.open_connection("127.0.0.1", link.http_port)
        try:
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: shard{link.index}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            async with timeout(_SHARD_HTTP_TIMEOUT):
                raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        head, sep, body = raw.partition(b"\r\n\r\n")
        if not sep:
            raise ConnectionError(f"shard {link.index} sent a torn response")
        return int(head.split(None, 2)[1]), body

    async def _fanout(self, method: str, path: str) -> list[tuple[int, bytes]]:
        return list(
            await asyncio.gather(
                *(self._shard_request(link, method, path) for link in self._links)
            )
        )

    async def _fanout_json(self, path: str, *, any_status: bool = False) -> list[Any]:
        payloads = []
        for index, (status, body) in enumerate(await self._fanout("GET", path)):
            if status != 200 and not any_status:
                raise RuntimeError(f"shard {index} answered {path} with {status}")
            payloads.append(json.loads(body))
        return payloads

    # ------------------------------------------------------------------ #
    # the query surface (scatter-gather merges)

    async def api_readiness(self) -> tuple[bool, dict[str, Any]]:
        """Ready iff the router is drained, every shard is ready, and every
        routed line is accounted inside a shard session (the conservation
        check covers lines in flight in loopback socket buffers, which
        neither side's queue gauges can see).

        A shard's ``/readyz`` requests its refresh, so shards are asked only
        once the router is drained and settled; asked earlier, a shard that
        momentarily caught up would refresh packets whose evidence is still
        being forwarded and reconstruct them again when it lands."""
        lag = self.book.lag_lines()
        queued = self.hub.queue.qsize()
        totals = await self._fanout_json("/offsets")
        ingested = sum(t["lines_ingested"] for t in totals)
        settled = ingested == self.book.lines_ingested
        shard_states = [(503, _UNASKED_SHARD)] * self.shards
        if lag == 0 and queued == 0 and settled:
            shard_states = [
                (status, json.loads(body))
                for status, body in await self._fanout("GET", "/readyz")
            ]
        ready = all(status == 200 for status, _ in shard_states)
        detail = {
            "ready": ready,
            "lag_lines": lag
            + max(0, self.book.lines_ingested - ingested)
            + sum(d["lag_lines"] for _, d in shard_states),
            "pending_packets": sum(d["pending_packets"] for _, d in shard_states),
            "queued_batches": queued
            + sum(d["queued_batches"] for _, d in shard_states),
            "queue_saturation": queued / self.hub.queue.maxsize,
            "lag_seconds": 0.0 if ready else self._last_queue_wait,
            "checkpoint_age_seconds": self._checkpoint_age(),
            "shards": {
                str(index): status == 200
                for index, (status, _) in enumerate(shard_states)
            },
        }
        return ready, detail

    async def api_packets_body(self) -> str:
        payloads = await self._fanout_json("/packets")
        keys = sorted(
            {
                PacketKey.parse(p)
                for payload in payloads
                for p in payload["packets"]
            }
        )
        return dumps_canonical({"packets": [str(k) for k in keys]})

    async def api_flows_body(self) -> str:
        return dumps_canonical(await self._merged("/flows"))

    async def api_reports_body(self) -> str:
        return dumps_canonical(await self._merged("/reports"))

    async def _merged(self, path: str) -> dict[str, Any]:
        """Union of per-shard canonical-key dict bodies (disjoint packets;
        ``dumps_canonical`` re-sorts, so the union's bytes equal the
        unsharded serialization)."""
        merged: dict[str, Any] = {}
        for payload in await self._fanout_json(path):
            merged.update(payload)
        return merged

    async def api_packet_body(self, kind: str, packet: PacketKey) -> tuple[int, str]:
        """Single-packet routes go straight to the owning shard."""
        link = self._links[shard_for_packet(packet, self.shards)]
        status, body = await self._shard_request(link, "GET", f"/{kind}/{packet}")
        return status, body.decode("utf-8")

    async def api_summary(self) -> dict[str, Any]:
        reports = {
            PacketKey.parse(p): report_from_dict(d)
            for payload in await self._fanout_json("/reports")
            for p, d in payload.items()
        }
        summaries = await self._fanout_json("/summary")
        return build_summary(
            reports,
            pending=sum(s["pending"] for s in summaries),
            batches_ingested=sum(s["batches_ingested"] for s in summaries),
            lines_ingested=self.book.lines_ingested,
            sources=len(self.book.ingested),
            metadata=self.metadata,
        )

    async def api_offsets(self) -> dict[str, Any]:
        corrupt: dict[str, int] = {}
        for payload in await self._fanout_json("/offsets"):
            for source, count in payload["corrupt_lines"].items():
                corrupt[source] = corrupt.get(source, 0) + count
        return {
            "offsets": dict(sorted(self.book.ingested.items())),
            "received": dict(sorted(self.book.received.items())),
            "corrupt_lines": dict(sorted(corrupt.items())),
            "lines_ingested": self.book.lines_ingested,
        }

    async def api_metrics_snapshot(self) -> MetricsSnapshot:
        snapshots = [
            MetricsSnapshot.from_json(payload)
            for payload in await self._fanout_json("/metrics")
        ]
        return merge_shard_snapshots(
            get_registry().snapshot(), list(enumerate(snapshots))
        )

    async def api_checkpoint(self, epoch: Optional[int]) -> Optional[dict[str, Any]]:
        if epoch is not None:
            raise ValueError("epoch is internal to shard workers")
        if self._manifest_path is None:
            return None
        assert self._route_lock is not None
        async with self._route_lock:
            path, packets = await self._coordinated_checkpoint()
        return {"path": str(path), "packets": packets, "epoch": self._epoch}

    # ------------------------------------------------------------------ #
    # coordinated checkpoints

    async def _barrier(self) -> None:
        """Wait until shard sessions account for every routed line.

        Caller holds the route lock, so the routed count is frozen; shard
        consumers drain their queues and socket buffers toward it.
        """
        target = self.book.lines_ingested
        deadline = time.monotonic() + BARRIER_TIMEOUT
        while True:
            totals = await self._fanout_json("/offsets")
            states = await self._fanout_json("/readyz", any_status=True)
            ingested = sum(t["lines_ingested"] for t in totals)
            if ingested == target and all(
                s["queued_batches"] == 0 and s["lag_lines"] == 0 for s in states
            ):
                return
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"cluster barrier timed out: shards hold {ingested} of "
                    f"{target} routed lines"
                )
            await asyncio.sleep(0.02)

    async def _coordinated_checkpoint(self) -> tuple[pathlib.Path, int]:
        """Quiesce, write every shard's epoch file, commit the manifest.

        Caller holds the route lock.  The manifest swap is the commit
        point: a crash before it leaves the previous epoch intact; after
        it, the new epoch is the truth and stale epoch files are GC'd.
        """
        assert self._manifest_path is not None
        started = time.perf_counter()
        await self._barrier()
        epoch = self._epoch + 1
        packets = 0
        for index, (status, body) in enumerate(
            await self._fanout("POST", f"/checkpoint?epoch={epoch}")
        ):
            if status != 200:
                raise RuntimeError(
                    f"shard {index} failed its epoch-{epoch} checkpoint "
                    f"({status}): {body.decode(errors='replace').strip()}"
                )
            packets += json.loads(body)["packets"]
        manifest = ClusterManifest(
            shards=self.shards,
            epoch=epoch,
            offsets=dict(self.book.ingested),
            lines_routed=self.book.lines_ingested,
            shard_files=tuple(
                shard_checkpoint_path(self._manifest_path, index, epoch).name
                for index in range(self.shards)
            ),
        )
        save_manifest(self._manifest_path, manifest)
        self._manifest = manifest
        self._epoch = epoch
        gc_shard_files(self._manifest_path, manifest)
        registry = get_registry()
        registry.gauge("serve.checkpoint.duration_seconds").set(
            time.perf_counter() - started
        )
        self._last_checkpoint_at = time.monotonic()
        self._dirty_since_checkpoint = False
        _log.info(
            "cluster.checkpointed",
            manifest=str(self._manifest_path),
            epoch=epoch,
            packets=packets,
        )
        return self._manifest_path, packets

    def _checkpoint_age(self) -> float:
        anchor = (
            self._last_checkpoint_at
            if self._last_checkpoint_at is not None
            else self._started_at
        )
        return max(0.0, time.monotonic() - anchor)

    # ------------------------------------------------------------------ #
    # the consumer (routes instead of decoding)

    async def _route_item(self, item: IngestItem) -> None:
        buckets: dict[int, list[str]] = {}
        for line in item.lines:
            buckets.setdefault(shard_for_line(line, self.shards), []).append(line)
        for index in sorted(buckets):
            await self._links[index].send(
                item.source, item.node_bind, item.trace_id, buckets[index]
            )
        n = len(item.lines)
        self.book.lines_ingested += n
        if item.source is not None:
            self.book.ingested[item.source] = (
                self.book.ingested.get(item.source, 0) + n
            )
        registry = get_registry()
        if registry.enabled:
            for index, lines in buckets.items():
                self._routed[index] += len(lines)
                registry.gauge("serve.shard.lines", shard=index).set(
                    self._routed[index]
                )
            if item.enqueued_at:
                wait = time.perf_counter() - item.enqueued_at
                self._last_queue_wait = wait
                registry.histogram("serve.queue.wait.seconds").observe(wait)
                registry.gauge("serve.ingest.lag_seconds").set(wait)
        self._dirty_since_checkpoint = True

    def _update_gauges(self) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        lag = self.book.lag_lines()
        queued = self.hub.queue.qsize()
        registry.gauge("serve.ingest.lag_lines").set(lag)
        registry.gauge("serve.ingest.queue_batches").set(queued)
        registry.gauge("serve.ingest.queue_saturation").set(
            queued / self.hub.queue.maxsize
        )
        if lag == 0 and queued == 0:
            self._last_queue_wait = 0.0
            registry.gauge("serve.ingest.lag_seconds").set(0.0)
        registry.gauge("serve.checkpoint.age_seconds").set(self._checkpoint_age())
        now = time.time()
        for source, seen in self.book.last_seen.items():
            registry.gauge("serve.source.staleness_seconds", source=source).set(
                max(0.0, now - seen)
            )

    async def _consume(self) -> None:
        """Single writer of routing state: dequeue, hash, forward."""
        assert self._route_lock is not None and self._shutdown is not None
        interval = self.config.checkpoint_interval
        next_checkpoint = time.monotonic() + interval if interval > 0 else None
        while True:
            try:
                async with timeout(self.config.flush_interval):
                    item = await self.hub.queue.get()
            except TimeoutError:
                self._update_gauges()
            else:
                try:
                    async with self._route_lock:
                        await self._route_item(item)
                except (ConnectionError, OSError) as exc:
                    # A dead shard makes in-memory state unrecoverable; the
                    # last committed manifest stays the truth, so fail-stop
                    # (clients re-push from its offsets on restart).
                    _log.error("cluster.forward-failed", error=str(exc))
                    self._degraded = True
                    self._shutdown.set()
                    return
                self.hub.queue.task_done()
                self._update_gauges()
            if (
                next_checkpoint is not None
                and self._dirty_since_checkpoint
                and time.monotonic() >= next_checkpoint
            ):
                try:
                    await self.api_checkpoint(None)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - keep serving
                    _log.warning("cluster.checkpoint-failed", error=str(exc))
                next_checkpoint = time.monotonic() + interval

    async def _drain_queue(self) -> None:
        """Route everything queued right now (shutdown; consumer stopped)."""
        if self._degraded:
            return
        assert self._route_lock is not None
        while not self.hub.queue.empty():
            item = self.hub.queue.get_nowait()
            try:
                async with self._route_lock:
                    await self._route_item(item)
            except (ConnectionError, OSError) as exc:
                _log.error("cluster.forward-failed", error=str(exc))
                self._degraded = True
                return

    async def _monitor_shards(self) -> None:
        """Watch shard liveness; a dead shard fail-stops the cluster."""
        assert self._shutdown is not None
        registry = get_registry()
        while True:
            for index, proc in enumerate(self._procs):
                alive = proc.is_alive()
                if registry.enabled:
                    registry.gauge("serve.shard.up", shard=index).set(
                        1.0 if alive else 0.0
                    )
                if not alive:
                    _log.error(
                        "cluster.shard-died",
                        shard=index,
                        exitcode=proc.exitcode,
                    )
                    self._degraded = True
                    self._shutdown.set()
                    return
            await asyncio.sleep(0.25)

    # ------------------------------------------------------------------ #
    # lifecycle

    def request_shutdown(self) -> None:
        """Trigger graceful cluster shutdown; safe from any thread."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    def listeners(self) -> list[dict[str, Any]]:
        """Public listeners plus every shard's private ones."""
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
        for link in self._links:
            out.append(
                {
                    "listener": f"shard{link.index}-ingest",
                    "transport": "tcp",
                    "host": "127.0.0.1",
                    "port": link.ingest_port,
                    "shard": link.index,
                }
            )
            out.append(
                {
                    "listener": f"shard{link.index}-http",
                    "transport": "tcp",
                    "host": "127.0.0.1",
                    "port": link.http_port,
                    "shard": link.index,
                }
            )
        return out

    async def _main(self, ready: Optional[Callable[["ClusterServer"], None]]) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        install_streams_cancel_filter(loop)
        self._shutdown = asyncio.Event()
        self._route_lock = asyncio.Lock()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        if self._manifest is not None:
            self.book.restore(self._manifest.offsets, {}, self._manifest.lines_routed)

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
        monitor = asyncio.create_task(self._monitor_shards())
        tails = [
            asyncio.create_task(self.hub.tail_file(path, self._shutdown))
            for path in self.config.tail
        ]
        _log.info(
            "cluster.listening",
            ingest_port=self.tcp_port,
            http_port=self.http_port,
            shards=self.shards,
            restored=self.restored,
            epoch=self._epoch,
        )
        if ready is not None:
            ready(self)

        await self._shutdown.wait()
        _log.info("cluster.draining", queued=self.hub.queue.qsize())
        for server in servers:
            server.close()
        monitor.cancel()
        consumer.cancel()
        for tail in tails:
            tail.cancel()
        workers = [
            consumer,
            monitor,
            *tails,
            *self.hub.cancel_readers(),
            *self.api.cancel_handlers(),
        ]
        pending_workers = set(workers)
        while pending_workers:
            # route concurrently with the reap so a reader parked on a full
            # queue always finds a slot to complete its cancellation through
            _done, pending_workers = await asyncio.wait(
                pending_workers, timeout=0.05
            )
            await self._drain_queue()
        for worker in workers:
            if not worker.cancelled() and worker.exception() is not None:
                _log.warning("cluster.worker-error", error=str(worker.exception()))
        for server in servers:
            await server.wait_closed()
        await self._drain_queue()
        await self._finalize()
        if self.config.unix_socket is not None:
            # refill: no-cc001 -- one-shot unlink on the shutdown path, after serving stopped
            pathlib.Path(self.config.unix_socket).unlink(missing_ok=True)
        self._write_final_outputs()
        _log.info(
            "cluster.stopped",
            lines=self.book.lines_ingested,
            epoch=self._epoch,
            degraded=self._degraded,
        )

    async def _finalize(self) -> None:
        """Final checkpoint + metrics capture, then stop the shards.

        Order matters: commit the manifest while the shards still serve
        (their post-commit self-write is an idempotent rewrite of the same
        epoch file), capture the merged snapshot, and only then tell them
        to exit.  A degraded cluster skips all of it — the last committed
        manifest stays the recoverable truth.
        """
        if self._degraded:
            self._final_snapshot = get_registry().snapshot()
            return
        if self._manifest_path is not None:
            try:
                assert self._route_lock is not None
                async with self._route_lock:
                    await self._coordinated_checkpoint()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - still stop cleanly
                _log.error("cluster.final-checkpoint-failed", error=str(exc))
        try:
            self._final_snapshot = await self.api_metrics_snapshot()
        except (ConnectionError, OSError, RuntimeError) as exc:
            _log.warning("cluster.final-metrics-failed", error=str(exc))
            self._final_snapshot = get_registry().snapshot()
        replies = await asyncio.gather(
            *(
                self._shard_request(link, "POST", "/shutdown")
                for link in self._links
            ),
            return_exceptions=True,
        )
        for index, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                _log.warning("cluster.shard-shutdown-odd", shard=index, error=str(reply))
            elif reply[0] != 202:
                _log.warning("cluster.shard-shutdown-odd", shard=index, code=reply[0])
        for link in self._links:
            await link.close()

    def _write_final_outputs(self) -> None:
        """Dump ``--metrics-out`` / ``--trace-out`` on graceful shutdown."""
        if self.config.metrics_out is not None:
            snapshot = (
                self._final_snapshot
                if self._final_snapshot is not None
                else self.registry.snapshot()
            )
            path = pathlib.Path(self.config.metrics_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(snapshot.to_json_str() + "\n")
            _log.info("serve.metrics-written", path=str(path))
        if self.config.trace_out is not None:
            count = self.recorder.dump_jsonl(self.config.trace_out)
            _log.info(
                "serve.trace-written", path=self.config.trace_out, records=count
            )

    def run(self, ready: Optional[Callable[["ClusterServer"], None]] = None) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT or ``/shutdown``.

        Shard subprocesses are spawned before the loop starts (process
        creation is blocking work) and joined after it exits; the router's
        registry and recorder wrap the loop exactly like the single
        daemon's, so ``GET /metrics`` and ``/debug/trace`` behave the same.
        """
        self._prepare_restore()
        self._spawn_shards()
        try:
            with use_registry(self.registry), use_recorder(self.recorder):
                asyncio.run(self._main(ready))
        finally:
            self._stop_shard_processes()
        return 0
