"""Shared plumbing for the REFILL benchmark: corpora, references, daemons.

Everything here runs in the benchmark's own process.  The program under
test is reached only through its public doors: ``python -m repro`` child
processes (``simulate``, ``analyze``, ``serve``) and the daemon's TCP ingest
and HTTP listeners.  The in-process library is imported only to build the
correctness reference and to push stores the way ``refill push`` does.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Per-checkout cache of generated corpora and their references (gitignored).
CACHE = ROOT / ".bench_cache"

#: Load comes from one process with at most this many connections open.
MAX_CONNECTIONS = os.cpu_count() or 1

#: Corpus shape per workload: (nodes, days).
SHAPES = {
    "analyze": (120, 4),
    "backfill": (120, 2),
    "query": (50, 2),
    "live": (120, 1),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    return statistics.median(values)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# corpora and the in-process reference


@dataclass
class Corpus:
    store: pathlib.Path
    nodes: int
    days: int
    seed: int
    lines: int
    packets: int
    #: sha256 of the reference ``/flows`` body (``dumps_canonical`` + newline).
    flows_sha256: str
    flows_bytes: int
    #: per-packet sha256 of the reference ``/flow/<p>`` and ``/report/<p>``.
    flow_sha256: dict[str, str] = field(default_factory=dict)
    report_sha256: dict[str, str] = field(default_factory=dict)

    def node_lines(self) -> dict[str, list[str]]:
        """Complete lines of every ``node_*.log`` shard, keyed by file name."""
        from repro.events.store import read_complete_lines

        return {
            shard.name: read_complete_lines(shard)
            for shard in sorted(self.store.glob("node_*.log"))
        }


def corpus(workload: str, seed: int) -> Corpus:
    """The workload's store for ``seed``: simulated once, then cached.

    Generation and the reference computation run outside every timing.
    """
    nodes, days = SHAPES[workload]
    base = CACHE / f"corpus-n{nodes}-d{days}-s{seed}"
    ref_path = base / "reference.json"
    if not ref_path.exists():
        tmp = CACHE / f".tmp-{os.getpid()}-{nodes}-{days}-{seed}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        subprocess.run(
            repro_cmd(
                "simulate", "-q", "--nodes", str(nodes), "--days", str(days),
                "--seed", str(seed), "--out", str(tmp / "logs"),
            ),
            env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        (tmp / "reference.json").write_text(json.dumps(_reference(tmp / "logs")))
        shutil.rmtree(base, ignore_errors=True)
        tmp.rename(base)
    ref = json.loads(ref_path.read_text())
    return Corpus(store=base / "logs", nodes=nodes, days=days, seed=seed, **ref)


def _reference(store: pathlib.Path) -> dict:
    """Reference bytes from an in-process :class:`ReconstructionSession`."""
    from repro.core.serialize import (
        dumps_canonical,
        flow_to_dict,
        flows_to_json,
        report_to_dict,
    )
    from repro.core.session import ReconstructionSession
    from repro.events.store import load_store

    loaded = load_store(store)
    session = ReconstructionSession(delivery_node=loaded.metadata.base_station)
    result = session.run(loaded.logs)
    body = (dumps_canonical(flows_to_json(result.flows)) + "\n").encode()
    lines = sum(
        len(shard.read_bytes().splitlines()) for shard in store.glob("node_*.log")
    )
    return {
        "lines": lines,
        "packets": len(result.flows),
        "flows_sha256": sha256(body),
        "flows_bytes": len(body),
        "flow_sha256": {
            str(p): sha256((dumps_canonical(flow_to_dict(f)) + "\n").encode())
            for p, f in result.flows.items()
        },
        "report_sha256": {
            str(p): sha256((dumps_canonical(report_to_dict(r)) + "\n").encode())
            for p, r in result.reports.items()
        },
    }


def scratch_dir(name: str) -> pathlib.Path:
    path = CACHE / f"run-{os.getpid()}" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup_scratch() -> None:
    shutil.rmtree(CACHE / f"run-{os.getpid()}", ignore_errors=True)


# ---------------------------------------------------------------------- #
# HTTP, one connection per request (the daemon answers Connection: close)


def http(port: int, path: str, method: str = "GET", timeout: float = 30.0):
    """``(status, body)`` of one request; raises ``OSError`` on refusal."""
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Length: 0\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def wait_ready(
    port: int, timeout: float = 120.0, interval: float = 0.005, polls=None
) -> float:
    """Poll ``/readyz`` until 200; returns the ``perf_counter`` of that 200.

    A traced caller passes a list as ``polls`` to collect
    ``(perf_counter, readiness detail)`` for every answered poll.
    """
    deadline = time.perf_counter() + timeout
    while True:
        try:
            status, body = http(port, "/readyz", timeout=timeout)
            now = time.perf_counter()
            if polls is not None:
                polls.append((now, json.loads(body)))
            if status == 200:
                return now
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise TimeoutError(f"/readyz on port {port} not 200 after {timeout}s")
        time.sleep(interval)


# ---------------------------------------------------------------------- #
# the daemon door


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_kb(pid: int) -> int:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """A ``refill serve`` subprocess with default settings.

    Only ports and paths are set; ``shards > 1`` adds ``--shards``.
    ``setup_s`` is the time from spawn to the first ``/readyz`` 200.
    """

    def __init__(self, store: pathlib.Path, workdir: pathlib.Path, shards: int = 1):
        self.workdir = workdir
        cmd = repro_cmd(
            "serve", "-q", "--logs", str(store), "--port", "0", "--http-port", "0",
            "--checkpoint", str(workdir / "cp.json"), "--print-ports",
        )
        if shards > 1:
            cmd += ["--shards", str(shards)]
        expect = {"ingest", "http"}
        for k in range(shards if shards > 1 else 0):
            expect |= {f"shard{k}-ingest", f"shard{k}-http"}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        self.ports: dict[str, int] = {}
        try:
            while not expect <= set(self.ports):
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited before printing its ports")
                entry = json.loads(line)
                self.ports[entry["listener"]] = int(entry["port"])
            self.setup_s = wait_ready(self.ports["http"]) - start
        except BaseException:
            self.stop()
            raise

    @property
    def http_port(self) -> int:
        return self.ports["http"]

    @property
    def ingest_port(self) -> int:
        return self.ports["ingest"]

    def shard_http_ports(self) -> list[int]:
        """Query listeners of the shard workers (none on a single daemon)."""
        return [
            port for name, port in sorted(self.ports.items())
            if name.startswith("shard") and name.endswith("-http")
        ]

    def get(self, path: str, timeout: float = 60.0):
        return http(self.http_port, path, timeout=timeout)

    def peak_rss_mb(self) -> float:
        """OS high-water RSS summed over the daemon and its shard workers."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0

    def metrics(self) -> dict:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def spawn_samples(store: pathlib.Path, workdir: pathlib.Path, n: int, shards: int = 1):
    """``n`` spawn-to-ready times of fresh, empty daemons."""
    samples = []
    for i in range(n):
        sub = workdir / f"spawn{i}"
        sub.mkdir()
        with Daemon(store, sub, shards) as daemon:
            samples.append(daemon.setup_s)
    return samples


def series_count(metrics: dict) -> int:
    return sum(len(metrics.get(kind, {})) for kind in ("counters", "gauges", "histograms"))
