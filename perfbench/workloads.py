"""The four untraced workloads.

Each returns a :class:`Outcome`: the end-to-end metrics, the attempted and
failed operation counts (any non-2xx answer, timeout, refusal or output
that is not byte-identical to the in-process reference is a failure), and
the workload's own named figures, which ``run.py`` prints on stderr.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field

import harness
from harness import Corpus, Daemon, median, percentile, sha256

#: Offered ingest rate of ``live`` in lines/s.  Rounds must land further
#: apart than a round takes to turn fresh on a ``--shards 2`` daemon (about
#: 0.8 s, most of it the shards' 0.5 s ``flush_interval`` reader timeout),
#: which caps the rate well below half of what ``backfill`` sustains (see
#: perfbench/README.md).
LIVE_RATE = 2000.0
#: Collection rounds the ``live`` store is split into, and the fewest
#: episodes (fresh 2-shard daemon, every round) one run measures.
LIVE_ROUNDS = 8
LIVE_MIN_EPISODES = 2
#: Open-loop query rate of ``live`` in requests/s, and its ``/flows`` cadence.
LIVE_QUERY_RATE = 40.0
LIVE_FLOWS_EVERY_ROUNDS = 2
#: ``query`` mix per 100 requests: point flow, point report, summary, bulk.
QUERY_MIX = (("flow", 80), ("report", 10), ("summary", 8), ("flows", 2))
#: Spawn-to-ready samples taken for ``setup_s`` in every workload.
SETUP_SAMPLES = 5
#: Fewest whole operations (analyze runs, pushes) one run measures.
MIN_OPS = 3


@dataclass
class Outcome:
    setup_s: float
    peak_rss_mb: float
    throughput_per_s: float
    latency_p50_ms: float
    attempted: int
    failed: int
    #: the workload's own figures, by the names the benchmark docs use
    named: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        return {
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "throughput_per_s": (self.throughput_per_s, "1/s"),
            "latency_p50_ms": (self.latency_p50_ms, "ms"),
        }


def repeat(seconds: float, min_ops: int):
    """Yield operation indices while another operation of the mean length so
    far still fits in ``seconds``; always at least ``min_ops``."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= min_ops and elapsed * (i + 1) / i > seconds:
            return
        yield i
        i += 1


def _check_connections(n: int) -> None:
    if n > harness.MAX_CONNECTIONS:
        raise SystemExit(
            f"load shape needs {n} concurrent connections; "
            f"this machine allows {harness.MAX_CONNECTIONS}"
        )


# ---------------------------------------------------------------------- #
# analyze: the batch door


def version_samples(n: int) -> list[float]:
    """Wall times of ``python -m repro --version``: the CLI's import cost."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(
            harness.repro_cmd("--version"), env=harness.child_env(),
            cwd=harness.ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def analyze_once(corpus: Corpus, out) -> tuple[float, float, bool]:
    """One ``refill analyze --flows-out`` run: ``(wall_s, maxrss_mb, ok)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        harness.repro_cmd(
            "analyze", "-q", "--logs", str(corpus.store), "--flows-out", str(out)
        ),
        env=harness.child_env(), cwd=harness.ROOT, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0 and sha256(out.read_bytes()) == corpus.flows_sha256
    return wall, usage.ru_maxrss / 1024.0, ok


def run_analyze(corpus: Corpus, seconds: float) -> Outcome:
    _check_connections(1)
    work = harness.scratch_dir("analyze")
    setup = version_samples(SETUP_SAMPLES)
    walls, rss, failed = [], [], 0
    for _ in repeat(seconds, MIN_OPS):
        out = work / "flows.json"
        wall, maxrss, ok = analyze_once(corpus, out)
        out.unlink(missing_ok=True)
        walls.append(wall)
        rss.append(maxrss)
        failed += not ok
    rate = corpus.packets / median(walls)
    return Outcome(
        setup_s=median(setup),
        peak_rss_mb=max(rss),
        throughput_per_s=rate,
        latency_p50_ms=median(walls) * 1e3,
        attempted=len(walls),
        failed=failed,
        named={"analyze_packets_per_s": rate, "analyze_runs": len(walls)},
    )


# ---------------------------------------------------------------------- #
# backfill: refill push --workers 2 into a fresh daemon


def push_store(daemon: Daemon, corpus: Corpus) -> None:
    from repro.serve.client import push_store as push

    push(corpus.store, port=daemon.ingest_port, workers=2, trace=False)


def backfill_once(corpus: Corpus, workdir, cpu=None) -> tuple[Daemon, float, bool]:
    """Fresh daemon, push the store, wait for ``/readyz``, check ``/flows``.

    Returns the still-running daemon (the caller stops it), the ingest
    time (first HELLO to the ``/readyz`` 200 after the last BYE) and
    whether the final ``/flows`` matched the reference.  A traced caller
    passes a list as ``cpu`` to get the daemon's CPU seconds used in the
    timed window, read outside it.
    """
    daemon = Daemon(corpus.store, workdir)
    try:
        cpu_start = harness.cpu_seconds(daemon.proc.pid) if cpu is not None else 0.0
        start = time.perf_counter()
        push_store(daemon, corpus)
        ingest_s = harness.wait_ready(daemon.http_port) - start
        if cpu is not None:
            cpu.append(harness.cpu_seconds(daemon.proc.pid) - cpu_start)
        status, body = daemon.get("/flows")
        ok = status == 200 and sha256(body) == corpus.flows_sha256
    except BaseException:
        daemon.stop()
        raise
    return daemon, ingest_s, ok


def run_backfill(corpus: Corpus, seconds: float) -> Outcome:
    _check_connections(2)
    work = harness.scratch_dir("backfill")
    setup, ingest, rss, failed = [], [], [], 0
    attempted = 0
    for i in repeat(seconds, MIN_OPS):
        sub = work / f"op{i}"
        sub.mkdir()
        attempted += 1
        try:
            daemon, ingest_s, ok = backfill_once(corpus, sub)
        except (OSError, TimeoutError, RuntimeError) as exc:
            harness.log(f"backfill op failed: {exc}")
            failed += 1
            continue
        with daemon:
            rss.append(daemon.peak_rss_mb())
        setup.append(daemon.setup_s)
        ingest.append(ingest_s)
        failed += not ok
    if len(setup) < SETUP_SAMPLES:
        setup += harness.spawn_samples(corpus.store, work, SETUP_SAMPLES - len(setup))
    if not ingest:
        raise RuntimeError("no backfill operation completed")
    rate = corpus.lines / median(ingest)
    return Outcome(
        setup_s=median(setup),
        peak_rss_mb=median(rss),
        throughput_per_s=rate,
        latency_p50_ms=median(ingest) * 1e3,
        attempted=attempted,
        failed=failed,
        named={"ingest_lines_per_s": rate, "pushes": attempted},
    )


# ---------------------------------------------------------------------- #
# query: warm daemon, closed loop on two connections


def query_plan(corpus: Corpus, seed: int, conn: int, n: int = 1000) -> list[str]:
    """A fixed, seeded, shuffled request mix for one connection."""
    rng = random.Random(seed * 1009 + conn)
    packets = sorted(corpus.flow_sha256)
    kinds = [kind for kind, share in QUERY_MIX for _ in range(share * n // 100)]
    rng.shuffle(kinds)
    paths = []
    for kind in kinds:
        if kind in ("flow", "report"):
            paths.append(f"/{kind}/{rng.choice(packets)}")
        else:
            paths.append(f"/{kind}")
    return paths


def expected_sha(corpus: Corpus, path: str):
    kind, _, packet = path.strip("/").partition("/")
    if kind == "flow":
        return corpus.flow_sha256[packet]
    if kind == "report":
        return corpus.report_sha256[packet]
    if kind == "flows":
        return corpus.flows_sha256
    return None


def route_of(path: str) -> str:
    return path.strip("/").partition("/")[0]


def closed_loop(port: int, corpus: Corpus, plans: list[list[str]], seconds: float):
    """Run each plan on its own connection slot until ``seconds`` pass.

    Returns ``(samples, wall_s)`` with ``samples`` a list of
    ``(route, latency_s, ok)`` in completion order.
    """
    _check_connections(len(plans))
    samples: list[tuple[str, float, bool]] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client(plan: list[str]) -> None:
        mine = []
        i = 0
        while time.perf_counter() < deadline:
            path = plan[i % len(plan)]
            i += 1
            t0 = time.perf_counter()
            try:
                status, body = harness.http(port, path)
            except OSError:
                mine.append((route_of(path), time.perf_counter() - t0, False))
                continue
            latency = time.perf_counter() - t0
            want = expected_sha(corpus, path)
            ok = status == 200 and (want is None or sha256(body) == want)
            mine.append((route_of(path), latency, ok))
        with lock:
            samples.extend(mine)

    threads = [threading.Thread(target=client, args=(plan,)) for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - start


def warm_query_daemon(corpus: Corpus, workdir) -> Daemon:
    daemon = Daemon(corpus.store, workdir)
    try:
        push_store(daemon, corpus)
        harness.wait_ready(daemon.http_port)
        status, body = daemon.get("/flows")
        if status != 200 or sha256(body) != corpus.flows_sha256:
            raise RuntimeError("warm daemon's /flows differs from the reference")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def latency_summary(samples) -> dict:
    """Per-route p50 (and the flow p99) in ms over successful samples."""
    by_route: dict[str, list[float]] = {}
    for route, latency, ok in samples:
        if ok:
            by_route.setdefault(route, []).append(latency * 1e3)
    out = {f"{route}_p50_ms": median(v) for route, v in by_route.items()}
    flow = by_route.get("flow", [])
    if flow:
        out["flow_p99_ms"] = percentile(flow, 99)
        out["flow_samples"] = len(flow)
    return out


def run_query(corpus: Corpus, seconds: float, seed: int) -> Outcome:
    work = harness.scratch_dir("query")
    setup = harness.spawn_samples(corpus.store, work, SETUP_SAMPLES - 1)
    with warm_query_daemon(corpus, work) as daemon:
        setup.append(daemon.setup_s)
        plans = [query_plan(corpus, seed, c) for c in range(2)]
        failed = 0
        failed += daemon.get("/readyz")[0] != 200
        samples, wall = closed_loop(daemon.http_port, corpus, plans, seconds)
        failed += daemon.get("/readyz")[0] != 200
        rss = daemon.peak_rss_mb()
    failed += sum(1 for _, _, ok in samples if not ok)
    named = latency_summary(samples)
    rps = len(samples) / wall
    named["query_rps"] = rps
    return Outcome(
        setup_s=median(setup),
        peak_rss_mb=rss,
        throughput_per_s=rps,
        latency_p50_ms=named["flow_p50_ms"],
        attempted=len(samples) + 2,
        failed=failed,
        named=named,
    )


# ---------------------------------------------------------------------- #
# live: collection rounds into a 2-shard daemon beside an open-loop query
# stream


@dataclass
class Round:
    #: source name -> (node, lines) appended in this round
    chunks: dict
    lines: int
    #: packets with evidence in this round (query targets once it is fresh)
    packets: list


def live_rounds(corpus: Corpus, rounds: int = LIVE_ROUNDS) -> list[Round]:
    """Each node's shard cut into ``rounds`` contiguous chunks, the
    :func:`repro.events.merge.split_collection_rounds` shape."""
    from repro.events.codec import decode_event
    from repro.serve.ingest import tail_node_bind

    shards = corpus.node_lines()
    out = []
    for i in range(rounds):
        chunks, packets = {}, set()
        for name, lines in shards.items():
            n = len(lines)
            part = lines[(n * i) // rounds : (n * (i + 1)) // rounds]
            if part:
                chunks[name] = (tail_node_bind(corpus.store / name), part)
                for line in part:
                    packet = decode_event(line).packet
                    if packet is not None:
                        packets.add(str(packet))
        out.append(Round(chunks, sum(len(p) for _, p in chunks.values()), sorted(packets)))
    return out


@dataclass
class Episode:
    fresh_s: list = field(default_factory=list)
    round_late_s: list = field(default_factory=list)
    query_late_s: list = field(default_factory=list)
    #: (route, latency from due time, ok)
    samples: list = field(default_factory=list)
    ingest_span_s: float = 0.0
    behind: int = 0
    failed: int = 0


def append_source(port: int, source: str, node, lines: list[str], sent: int) -> bool:
    """Append ``lines`` to a resumable source over one connection.

    Speaks the ingest protocol directly: ``HELLO``, check the resume offset
    equals what was sent before, then the lines and ``BYE`` in one write.
    Returns whether the offset and the ``BYE`` count matched.
    """
    from repro.serve import protocol

    hello = protocol.Hello(source=source, node=node).format() + "\n"
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        reply = sock.makefile("rb")
        sock.sendall(hello.encode())
        offset = int(protocol.parse_ok(reply.readline().decode()).get("offset", -1))
        payload = "".join(line + "\n" for line in lines) + protocol.BYE + "\n"
        sock.sendall(payload.encode())
        accepted = int(protocol.parse_ok(reply.readline().decode()).get("accepted", -1))
        reply.close()
    return offset == sent and accepted == len(lines)


def live_episode(
    daemon: Daemon, corpus: Corpus, rounds: list[Round], rng, timeline=None
) -> Episode:
    """Offer every round on schedule while a query stream runs beside it.

    A traced caller passes a list as ``timeline`` to collect, per round,
    ``(start, sends_done, readyz polls)``.
    """
    ep = Episode()
    total = sum(r.lines for r in rounds)
    start = time.perf_counter() + 0.05
    dues, cum = [], 0
    for r in rounds:
        dues.append(start + cum / LIVE_RATE)
        cum += r.lines
    interval = (total / LIVE_RATE) / len(rounds)
    fresh_round = [-1]
    done = threading.Event()

    def ingest() -> None:
        sent: dict[str, int] = {}
        try:
            for i, (r, due) in enumerate(zip(rounds, dues)):
                time.sleep(max(0.0, due - time.perf_counter()))
                began = time.perf_counter()
                ep.round_late_s.append(began - due)
                ep.behind += began - due > interval
                for source, (node, lines) in r.chunks.items():
                    before = sent.get(source, 0)
                    ep.failed += not append_source(
                        daemon.ingest_port, source, node, lines, before
                    )
                    sent[source] = before + len(lines)
                polls = None if timeline is None else []
                sends_done = time.perf_counter()
                ep.fresh_s.append(
                    harness.wait_ready(daemon.http_port, polls=polls) - due
                )
                if timeline is not None:
                    timeline.append((began, sends_done, polls))
                fresh_round[0] = i
            ep.ingest_span_s = time.perf_counter() - dues[0]
        except (OSError, TimeoutError) as exc:
            harness.log(f"live ingest failed: {exc}")
            ep.failed += 1
        finally:
            done.set()

    thread = threading.Thread(target=ingest)
    thread.start()
    k, last_flows_round = 0, -1
    while not done.is_set():
        due = start + k / LIVE_QUERY_RATE
        k += 1
        time.sleep(max(0.0, due - time.perf_counter()))
        if done.is_set():
            break
        newest = fresh_round[0]
        if newest < 0:
            continue
        ep.query_late_s.append(time.perf_counter() - due)
        if newest // LIVE_FLOWS_EVERY_ROUNDS > last_flows_round // LIVE_FLOWS_EVERY_ROUNDS:
            path, last_flows_round = "/flows", newest
        elif k % 5 == 0:
            path = "/summary"
        else:
            path = f"/flow/{rng.choice(rounds[newest].packets)}"
        try:
            status, _ = daemon.get(path)
            ok = status == 200
        except OSError:
            ok = False
        ep.samples.append((route_of(path), time.perf_counter() - due, ok))
    thread.join()
    # a query stream still more than a second behind at the end has a
    # growing backlog
    ep.behind += bool(ep.query_late_s) and ep.query_late_s[-1] > 1.0
    return ep


def run_live(corpus: Corpus, seconds: float, seed: int) -> Outcome:
    _check_connections(2)
    work = harness.scratch_dir("live")
    rounds = live_rounds(corpus)
    rng = random.Random(seed)
    setup, rss, episodes, attempted, failed = [], [], [], 0, 0
    for i in repeat(seconds, LIVE_MIN_EPISODES):
        sub = work / f"ep{i}"
        sub.mkdir()
        with Daemon(corpus.store, sub, shards=2) as daemon:
            setup.append(daemon.setup_s)
            ep = live_episode(daemon, corpus, rounds, rng)
            status, body = daemon.get("/flows")
            ep.failed += status != 200 or sha256(body) != corpus.flows_sha256
            rss.append(daemon.peak_rss_mb())
        episodes.append(ep)
        attempted += len(rounds) + len(ep.samples) + 1
        failed += ep.failed + ep.behind + sum(1 for s in ep.samples if not s[2])
        if ep.behind:
            harness.log(f"live: a generator fell behind ({ep.behind}); run invalid")
    if len(setup) < SETUP_SAMPLES:
        setup += harness.spawn_samples(
            corpus.store, work, SETUP_SAMPLES - len(setup), shards=2
        )
    fresh = [f for ep in episodes for f in ep.fresh_s]
    samples = [s for ep in episodes for s in ep.samples]
    rate = median([corpus.lines / ep.ingest_span_s for ep in episodes if ep.ingest_span_s])
    named = latency_summary(samples)
    named.update(
        fresh_p50_ms=median(fresh) * 1e3,
        offered_lines_per_s=LIVE_RATE,
        round_late_max_ms=max(l for ep in episodes for l in ep.round_late_s) * 1e3,
        query_late_p50_ms=median([l for ep in episodes for l in ep.query_late_s]) * 1e3,
        episodes=len(episodes),
        rounds_timed=len(fresh),
    )
    return Outcome(
        setup_s=median(setup),
        peak_rss_mb=median(rss),
        throughput_per_s=rate,
        latency_p50_ms=named["fresh_p50_ms"],
        attempted=attempted,
        failed=failed,
        named=named,
    )
