"""S1 — analysis throughput vs network size.

REFILL is an offline analyzer; what matters operationally is that
reconstruction scales linearly in the number of logged events (per-packet
engines are independent).  The benchmark measures reconstruction throughput
across network sizes and checks per-event cost stays roughly flat.
"""

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.session import ReconstructionSession
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import bench_seed

SIZES = (40, 80, 160)


def prepare(n_nodes):
    params = citysee(n_nodes=n_nodes, days=1, seed=bench_seed("scalability", 51))
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    events = sum(len(log) for log in logs.values())
    return logs, events


def test_reconstruction_scalability(benchmark, emit):
    import time

    rows = []
    for n_nodes in SIZES:
        logs, events = prepare(n_nodes)
        session = ReconstructionSession()
        start = time.perf_counter()
        flows = session.reconstruct(logs)
        elapsed = time.perf_counter() - start
        rows.append((n_nodes, events, len(flows), elapsed, events / elapsed))

    # benchmark the largest size for the timing table
    logs, events = prepare(SIZES[-1])
    benchmark.pedantic(
        lambda: ReconstructionSession().reconstruct(logs), rounds=3, iterations=1
    )

    # throughput stays in the same ballpark across sizes (no superlinear blowup)
    rates = [rate for *_, rate in rows]
    assert max(rates) < 5 * min(rates)
    assert min(rates) > 5_000  # events/second, generous floor

    emit(
        "scalability",
        render_table(
            ["n_nodes", "log_events", "packets", "seconds", "events_per_s"],
            [
                (n, e, p, round(t, 2), int(r))
                for n, e, p, t, r in rows
            ],
            title="S1 — REFILL reconstruction throughput vs network size",
        ),
    )

