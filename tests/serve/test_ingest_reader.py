"""Connection readers ship every framed chunk at once.

A link that stays open — a router's link to its shard, a node that keeps
its socket — sends no ``BYE`` and no EOF after a round.  Its lines are
complete, so a reader must queue them as soon as they are framed instead
of holding them for more input.  ``flush_interval`` here is far longer
than any test waits, so no timer can be what delivered the lines.
"""

import asyncio
import json
import time

from repro.core.backends import IncrementalBackend
from repro.core.serialize import dumps_canonical, flows_to_json
from repro.core.session import ReconstructionSession
from repro.events.store import load_store, read_complete_lines
from repro.serve import ServeConfig, ServerThread
from repro.serve.client import LineSender, push_store
from repro.serve.ingest import IngestHub, SourceBook, decode_lines
from tests.serve.util import http_json, http_req, wait_ready

#: Far beyond every wait below: no ``flush_interval`` timer fires during a
#: test.
LONG_FLUSH = 60.0


def _store_lines(store) -> list[str]:
    """Every node's lines, node after node (per-node order preserved)."""
    return [
        line
        for shard in sorted(store.glob("node_*.log"))
        for line in read_complete_lines(shard)
    ]


class TestOpenLinksDeliver:
    def test_single_daemon_serves_lines_from_a_socket_left_open(
        self, store, tmp_path
    ):
        lines = _store_lines(store)
        events, _ = decode_lines(lines, None)
        session = ReconstructionSession(
            backend=IncrementalBackend(),
            delivery_node=load_store(store).metadata.base_station,
        )
        session.ingest(events)
        expected = dumps_canonical(flows_to_json(session.flows()))
        config = ServeConfig(
            store=str(store),
            checkpoint_path=str(tmp_path / "cp.json"),
            flush_interval=LONG_FLUSH,
        )
        with ServerThread(config) as thread:
            with LineSender(port=thread.tcp_port) as sender:
                assert sender.hello("open-link") == 0
                sender.send_lines(lines)
                started = time.monotonic()
                wait_ready(thread.http_port, timeout=2.0)
                elapsed = time.monotonic() - started
                status, served = http_req(thread.http_port, "/flows")
        assert elapsed < 2.0
        assert status == 200
        assert served.strip() == expected

    def test_cluster_is_ready_without_waiting_on_shard_links(
        self, store, batch_flows, tmp_path
    ):
        config = ServeConfig(
            store=str(store),
            shards=2,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            checkpoint_interval=0.0,
            flush_interval=LONG_FLUSH,
        )
        with ServerThread(config) as running:
            push_store(store, port=running.tcp_port, workers=2)
            wait_ready(running.http_port, timeout=10.0)
            status, served = http_req(running.http_port, "/flows")
            _, metrics = http_json(running.http_port, "/metrics")
        assert status == 200
        assert served.strip() == batch_flows
        # shards are asked to refresh only once the router has forwarded
        # everything, so each packet is still reconstructed exactly once
        assert metrics["counters"]["refill.packets"] == len(json.loads(served))


class _NullWriter:
    """The slice of ``asyncio.StreamWriter`` a reader talks back through."""

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class TestChunkBatching:
    def test_one_chunk_is_queued_in_batches_of_at_most_batch_lines(self):
        batch_lines = 300
        lines = [f"node=1 type=send pkt=p1.{i} pad={i:030d}" for i in range(1000)]
        chunk = ("HELLO source=s\n" + "".join(f"{line}\n" for line in lines)).encode()
        assert len(chunk) <= 65536

        async def scenario():
            book = SourceBook()
            hub = IngestHub(
                ServeConfig(ingest_batch_lines=batch_lines, flush_interval=LONG_FLUSH),
                book,
            )
            reader = asyncio.StreamReader()
            reader.feed_data(chunk)  # one read, and the link stays open
            task = asyncio.create_task(hub._read_connection(reader, _NullWriter()))
            for _ in range(100):  # let the reader frame the chunk and park
                await asyncio.sleep(0)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            batches = []
            while not hub.queue.empty():
                batches.append(hub.queue.get_nowait().lines)
            return batches, book.received

        batches, received = asyncio.run(scenario())
        assert [len(batch) for batch in batches] == [300, 300, 300, 100]
        assert [line for batch in batches for line in batch] == lines
        assert received == {"s": len(lines)}
