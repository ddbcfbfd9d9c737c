"""The event-per-completion fair share against the per-quantum engine it replaced.

`quantum_oracle.QuantumSimulation` fires an event at every quantum
boundary, and orders the events of one instant by the declared rule with
keys of its own. Both must write the same `report.json`, `requests.csv`
and trace, byte for byte, and read the same load at every microsecond.
The replayed traces put every time on multiples of one unit that divides
the quantum, so boundaries, arrivals, completions and samples often share
an instant and the order of same-instant events decides the output.
"""

import io

from hypothesis import given, settings, strategies as st

from mssim.config import SimConfig
from mssim.gateway import LbPolicy
from mssim.instance import QueueKind, QueuePolicy
from mssim.metrics import write_requests_csv
from mssim.simulation import Simulation
from mssim.workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    TraceRow,
    replay_trace,
    write_trace_csv,
)
from quantum_oracle import QuantumSimulation

LBS = (LbPolicy.ROUND_ROBIN, LbPolicy.LEAST_CONNECTION, LbPolicy.GREEDY)


def config(quantum, microservices, lb, end_time, sample, **overrides) -> SimConfig:
    n = len(microservices)
    base = dict(
        end_time=end_time,
        seed=1,
        sla=4_000_000,
        arrival=ArrivalModel(mean_interarrival=1066),
        exec_model=ExecModel(mu=4.912514296647084, sigma=2.5, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=(1 / n,) * n),
        communication=CommunicationModel(comm_probabilities=(1 / n,) * n),
        microservices=tuple(microservices),
        queue_policy=QueuePolicy(QueueKind.FAIR_SHARE, quantum=quantum),
        lb_policy=lb,
        utilization_interval=sample,
        imbalance_interval=sample,
        drain=True,
    )
    base.update(overrides)
    return SimConfig(**base)


def artifacts(result) -> tuple[str, str, str]:
    requests, trace = io.StringIO(), io.StringIO()
    write_requests_csv((result.client_records, result.stage_records), requests)
    write_trace_csv(result.trace_rows, trace)
    return result.report.to_json(), requests.getvalue(), trace.getvalue()


def simulation(sim_class, cfg, rows=None):
    return sim_class(cfg, replay=None if rows is None else replay_trace(rows), collect_trace=True)


def assert_same_run(cfg, rows=None):
    runs = []
    for sim_class in (Simulation, QuantumSimulation):
        runs.append(artifacts(simulation(sim_class, cfg, rows).run()))
    new, oracle = runs
    for name, a, b in zip(("report.json", "requests.csv", "trace"), new, oracle):
        assert a == b, name


@st.composite
def tied_traces(draw):
    """(quantum, unit, microservices, rows): every time and exec a multiple of unit."""
    quantum = draw(st.sampled_from((1, 3, 7, 50, 500)))
    unit = draw(st.sampled_from([d for d in range(1, quantum + 1) if quantum % d == 0]))
    microservices = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    n = len(microservices)
    rows = []
    for rid in range(draw(st.integers(1, 12))):
        at = unit * draw(st.integers(0, 12))
        root = draw(st.integers(0, n - 1))
        rows.append(TraceRow(rid, at, root, unit * draw(st.integers(1, 9)), 0))
        # distinct callees per level, so every row names one parent
        for child in draw(st.lists(st.integers(0, n - 1).filter(lambda m: m != root),
                                   max_size=2, unique=True)):
            rows.append(TraceRow(rid, at, child, unit * draw(st.integers(1, 9)), 1, root))
            if draw(st.booleans()):
                grandchild = draw(st.integers(0, n - 1).filter(lambda m: m != child))
                rows.append(TraceRow(rid, at, grandchild, unit * draw(st.integers(1, 9)), 2, child))
    return quantum, unit, microservices, rows


@given(tied_traces(), st.sampled_from(LBS), st.integers(1, 20))
@settings(max_examples=400, deadline=None)
def test_replays_match_the_per_quantum_engine_at_forced_ties(trace, lb, samples):
    quantum, unit, microservices, rows = trace
    end_time = unit * 13
    assert_same_run(config(quantum, microservices, lb, end_time, unit * samples), rows)


def test_sampled_runs_match_the_per_quantum_engine():
    # the benchmark's model at 1 s, and the same with a 1 us quantum, where
    # every instant of a busy instance is a boundary
    for quantum in (500, 50, 1):
        for lb in LBS:
            end_time = 200_000 if quantum == 1 else 1_000_000
            cfg = config(quantum, (4, 2, 1, 1), lb, end_time, 100_000,
                         routing=RoutingModel(call_probabilities=(0.62, 0.18, 0.08, 0.12)),
                         communication=CommunicationModel(
                             comm_probabilities=(0.62, 0.18, 0.08, 0.12)))
            assert_same_run(cfg)


def load_trace(sim_class, cfg, rows, end):
    """(backlog, busy time, queue length) of every instance at every us up to `end`.

    A probe at every microsecond is an event at every boundary's instant.
    """
    sim = simulation(sim_class, cfg, rows)
    seen = []

    def probe(t):
        seen.append([(s.backlog(t), s.busy_time_until(t), len(s.queue)) for s in sim.instances])

    for t in range(end):
        sim.engine.schedule(t, probe, t)
    sim.run()
    return seen


@given(tied_traces())
@settings(max_examples=100, deadline=None)
def test_load_reads_as_the_per_quantum_engine_at_every_microsecond(trace):
    quantum, unit, microservices, rows = trace
    cfg = config(quantum, microservices, LbPolicy.GREEDY, unit * 13, unit * 5)
    end = unit * 13 + sum(row.exetime for row in rows) + 1
    assert load_trace(Simulation, cfg, rows, end) == load_trace(QuantumSimulation, cfg, rows, end)
