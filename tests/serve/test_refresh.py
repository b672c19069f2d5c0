"""When the daemon refreshes: once per packet, at a reader's request.

A store push sends every node's log as its own source, so a packet's
evidence arrives over several connections.  Closing a source only
enqueues its lines; the readiness probe requests the refresh once the
daemon is drained, so each packet is reconstructed exactly once.  The
``flush_interval`` here is far longer than any test waits, so the idle-gap
refresh can never be what made a flow fresh.
"""

import socket
import time

from repro.core.serialize import dumps_canonical, flows_to_json
from repro.core.session import ReconstructionSession
from repro.events.store import load_store
from repro.serve import ServeConfig, ServerThread
from repro.serve.client import LineSender, push_store
from tests.serve.util import http_json, http_req, wait_ready

#: Far beyond every wait below: no idle-gap refresh fires during a test.
LONG_FLUSH = 60.0


def _config(store, tmp_path):
    return ServeConfig(
        store=str(store),
        checkpoint_path=str(tmp_path / "checkpoint.json"),
        flush_interval=LONG_FLUSH,
    )


def _session_flows(store) -> tuple[str, int]:
    loaded = load_store(store)
    session = ReconstructionSession(delivery_node=loaded.metadata.base_station)
    flows = session.run(loaded.logs).flows
    return dumps_canonical(flows_to_json(flows)), len(flows)


def _wait_drained(port: int, timeout: float = 30.0) -> None:
    """Until every received line is ingested (``/offsets`` never refreshes)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, offsets = http_json(port, "/offsets")
        if offsets["offsets"] == offsets["received"]:
            return
        time.sleep(0.01)
    raise TimeoutError(f"daemon not drained in {timeout}s: {offsets}")


class TestRefreshOnRequest:
    def test_store_push_reconstructs_each_packet_exactly_once(
        self, store, tmp_path
    ):
        expected, packets = _session_flows(store)
        with ServerThread(_config(store, tmp_path)) as thread:
            results = push_store(store, port=thread.tcp_port, workers=2)
            assert len(results) > 2  # several per-node sources
            wait_ready(thread.http_port)
            _, metrics = http_json(thread.http_port, "/metrics")
            status, served = http_req(thread.http_port, "/flows")
        assert metrics["counters"]["refill.packets"] == packets
        assert status == 200
        assert served.strip() == expected

    def test_readiness_probe_requests_the_refresh(self, store, tmp_path):
        with ServerThread(_config(store, tmp_path)) as thread:
            push_store(store, port=thread.tcp_port, workers=2)
            _wait_drained(thread.http_port)
            started = time.monotonic()
            status, detail = http_json(thread.http_port, "/readyz")
            assert status == 503
            assert detail["pending_packets"] > 0
            assert detail["lag_lines"] == 0 and detail["queued_batches"] == 0
            for _ in range(50):
                status, detail = http_json(thread.http_port, "/readyz")
                if status == 200:
                    break
                time.sleep(0.02)
            elapsed = time.monotonic() - started
        assert status == 200, detail
        assert detail["pending_packets"] == 0
        assert elapsed < LONG_FLUSH / 10


class TestLineSender:
    def test_tcp_sender_disables_nagle(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            with LineSender(port=port) as sender:
                nodelay = sender._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                listener.accept()[0].close()
        assert nodelay == 1
