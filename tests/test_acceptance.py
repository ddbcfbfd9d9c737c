"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion. The experiment-scale scenarios (criteria 6 and 7) use a
desk-scale workload: same topology, routing weights, depth mix, SLA, and
arrival rate as the full-scale setup, with the execution-time model sized
so the busiest microservice sees offered load near 0.9 per instance under
a heavy lognormal tail, and the horizon shortened so the suite stays fast.
"""

import io
import json
import math
import random
import time
from itertools import chain

import numpy as np
import pytest

from mssim.config import SimConfig
from mssim.engine import Engine
from mssim.gateway import LbPolicy
from mssim.instance import (
    FairShareState,
    InstanceState,
    QueueKind,
    QueuePolicy,
    assign_deadlines,
)
from mssim.metrics import ecdf, percentile, write_requests_csv
from mssim.model import ClientRequest, InstanceId, Stage, iter_nodes
from mssim.simulation import run_simulation
from mssim.workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    replay_trace,
    write_trace_csv,
)
from oracles import OracleStage, brute_force_schedule, ks_distance, mg1_fcfs_mean_wait

QUEUE_POLICIES = {
    "fcfs": QueuePolicy(QueueKind.FCFS),
    "sf": QueuePolicy(QueueKind.SHORTEST_FIRST),
    "fs": QueuePolicy(QueueKind.FAIR_SHARE, quantum=500),
    "eds": QueuePolicy(QueueKind.EDS),
    "exds": QueuePolicy(QueueKind.EXDS),
}

# Desk-scale experiment workload. The stage arrival rate at the busiest
# microservice is 0.62 / 1066us / 4 instances x 2 stages per client
# ~= 2.9e-4 per us; the lognormal mean is sized for ~0.9 load there.
EXP_SIGMA = 2.5
EXP_MEAN_EXEC = 0.9 / 2.908e-4
EXP_MU = math.log(EXP_MEAN_EXEC) - EXP_SIGMA**2 / 2
EXP_END = 20_000_000  # 20 s


def experiment_config(queue: QueuePolicy, lb: LbPolicy) -> SimConfig:
    return SimConfig(
        end_time=EXP_END,
        seed=1,
        sla=4_000_000,
        arrival=ArrivalModel(1066),
        exec_model=ExecModel(mu=EXP_MU, sigma=EXP_SIGMA, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=(0.62, 0.18, 0.08, 0.12)),
        communication=CommunicationModel(comm_probabilities=(0.62, 0.18, 0.08, 0.12)),
        lb_policy=lb,
        queue_policy=queue,
        microservices=(4, 2, 1, 1),
        utilization_interval=5_000_000,
        imbalance_interval=1_000_000,
        drain=True,
    )


@pytest.fixture(scope="module")
def experiment1_runs():
    return {
        name: run_simulation(experiment_config(qp, LbPolicy.ROUND_ROBIN))
        for name, qp in QUEUE_POLICIES.items()
    }


@pytest.fixture(scope="module")
def experiment2_runs(experiment1_runs):
    runs = {LbPolicy.ROUND_ROBIN: experiment1_runs["fcfs"]}
    for lb in (LbPolicy.LEAST_CONNECTION, LbPolicy.GREEDY):
        runs[lb] = run_simulation(experiment_config(QUEUE_POLICIES["fcfs"], lb))
    return runs


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_mg1_wait_matches_oracle():
    """Single FCFS instance at half load tracks the closed-form mean wait."""
    n_target = 100_000
    gap, exe = 2000, 1000
    cfg = SimConfig(
        end_time=(n_target + 5_000) * gap,
        seed=42,
        arrival=ArrivalModel(gap),
        exec_model=ExecModel(mu=math.log(exe), sigma=0.0, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 1.0),)),
        routing=RoutingModel(call_probabilities=(1.0,)),
        communication=CommunicationModel(comm_probabilities=(1.0,)),
        microservices=(1,),
        utilization_interval=(n_target + 5_000) * gap,
        imbalance_interval=(n_target + 5_000) * gap,
    )
    started = time.monotonic()
    result = run_simulation(cfg)
    elapsed = time.monotonic() - started

    expected = mg1_fcfs_mean_wait(lam=1 / gap, es=exe, es2=float(exe) ** 2)
    assert expected == 500.0
    waits = [r.wait for r in result.stage_records]
    assert len(waits) >= n_target
    assert np.mean(waits) == pytest.approx(expected, rel=0.05)
    assert elapsed < 10.0


# -- criterion 2 -------------------------------------------------------------


def engine_schedule(stages, policy):
    """Completion times from the event engine on one instance."""
    eng = Engine()
    completion = {}

    def on_arrival(stage):
        nxt = state.enqueue(stage, eng.now)
        if nxt is not None:
            # a fair-share join can move the queued completion
            if state.pending is None:
                state.pending = eng.schedule(nxt, on_slice_complete)
            else:
                state.pending = eng.move(state.pending, nxt)

    def on_slice_complete(_):
        done, nxt = state.finish_slice(eng.now)
        completion[done.request_id] = eng.now
        state.pending = None if nxt is None else eng.schedule(nxt, on_slice_complete)

    make = FairShareState if policy.kind is QueueKind.FAIR_SHARE else InstanceState
    state = make(InstanceId(0, 0), policy)

    for s in sorted(stages, key=lambda s: (s.arrival, s.request_id)):
        stage = Stage(
            request_id=s.request_id,
            target=0,
            exec_time=s.exec_time,
            depth=0,
            arrival=s.arrival,
            deadline=s.deadline,
            remaining=s.exec_time,
        )
        eng.schedule(s.arrival, on_arrival, stage)
    eng.drain()
    return [completion[s.request_id] for s in stages]


def test_criterion_2_engine_matches_brute_force():
    """1000 random small scenarios per policy agree to the microsecond."""
    rng = random.Random(20260826)
    for scenario in range(1000):
        n = rng.randint(1, 20)
        stages = [
            OracleStage(
                arrival=rng.randint(0, 300),
                exec_time=rng.randint(1, 60),
                request_id=i,
                deadline=rng.randint(0, 400),
            )
            for i in range(n)
        ]
        quantum = rng.choice((1, 3, 7, 50, 500))
        policies = dict(QUEUE_POLICIES, fs=QueuePolicy(QueueKind.FAIR_SHARE, quantum=quantum))
        for name, policy in policies.items():
            expected = [c for _, c in brute_force_schedule(stages, policy.kind.value, policy.quantum)]
            got = engine_schedule(stages, policy)
            assert got == expected, f"scenario {scenario}, policy {name}"


def test_fair_share_requeue_cases_match_brute_force():
    """A stage runs alone for three quanta, then one arrival lands on a quantum
    boundary and one strictly inside a quantum."""
    stages = [
        OracleStage(arrival=0, exec_time=450, request_id=0),
        OracleStage(arrival=300, exec_time=150, request_id=1),  # boundary: 0's third slice ends
        OracleStage(arrival=350, exec_time=120, request_id=2),  # inside 1's slice (300, 400)
    ]
    policy = QueuePolicy(QueueKind.FAIR_SHARE, quantum=100)
    expected = [c for _, c in brute_force_schedule(stages, policy.kind.value, policy.quantum)]
    assert expected == [700, 650, 720]
    assert engine_schedule(stages, policy) == expected


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_same_seed_byte_identical_artifacts(tmp_path):
    from mssim.cli import cli_main

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "end_time": "2s",
        "seed": 7,
        "arrival": {"mean_interarrival": 3000},
        "exec": {"mu": 6.2, "sigma": 1.0, "unit": "us"},
        "depth": {"0": 0.5, "2": 0.5},
        "microservices": [2, 2],
        "queue_policy": "fair_share",
        "utilization_interval": "1s",
        "imbalance_interval": "500ms",
    }), encoding="utf-8")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "requests.csv").read_bytes() == (outs[1] / "requests.csv").read_bytes()


# -- criteria 4 and 5 --------------------------------------------------------


def chain_request(created_at, execs):
    nodes = []
    for depth, exe in enumerate(execs):
        called_by = None if depth == 0 else depth - 1
        nodes.append(Stage(
            request_id=1, target=depth, exec_time=exe, depth=depth, called_by=called_by,
        ))
    for parent, child in zip(nodes, nodes[1:]):
        parent.children = [child]
    return ClientRequest(request_id=1, created_at=created_at, root_stages=[nodes[0]])


def test_criterion_4_equal_slack_deadlines():
    req = chain_request(created_at=6000, execs=(100, 100, 100))
    assign_deadlines(req, QueueKind.EDS, 3000)
    assert [n.deadline for n in iter_nodes(req)] == [7000, 8000, 9000]

    flat = chain_request(created_at=6000, execs=(100,))
    assign_deadlines(flat, QueueKind.EDS, 3000)
    assert flat.root_stages[0].deadline == 9000


def test_criterion_5_exec_proportional_deadlines():
    req = chain_request(created_at=6000, execs=(500, 1000, 500))
    assign_deadlines(req, QueueKind.EXDS, 3000)
    assert [n.deadline for n in iter_nodes(req)] == [6750, 8250, 9000]


# -- criteria 6 and 7 --------------------------------------------------------


def test_criterion_6_queue_policy_p99_ordering(experiment1_runs):
    slow = {
        name: [r.slowdown for r in res.client_records]
        for name, res in experiment1_runs.items()
    }
    p99 = {name: percentile(vals, 0.99) for name, vals in slow.items()}
    assert ks_distance(slow["eds"], slow["exds"]) <= 0.05
    assert p99["sf"] > p99["fs"] > p99["fcfs"] > max(p99["eds"], p99["exds"]), (
        f"p99 slowdowns: {p99}"
    )


def test_criterion_7_load_balancer_ordering(experiment2_runs):
    imb, low = {}, {}
    for lb, res in experiment2_runs.items():
        by_ms = res.report.imbalance_by_ms
        imb[lb] = sum(by_ms.values()) / len(by_ms)
        vals = [r.slowdown for r in res.client_records]
        low[lb] = sum(1 for v in vals if v <= 2.0) / len(vals)
    rr, lc, gr = LbPolicy.ROUND_ROBIN, LbPolicy.LEAST_CONNECTION, LbPolicy.GREEDY
    assert imb[rr] > imb[lc] >= imb[gr], f"imbalance: {imb}"
    assert min(low[lc], low[gr]) > low[rr], f"low-slowdown fractions: {low}"


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_trace_round_trip():
    cfg = SimConfig(
        end_time=11_000_000,
        seed=5,
        arrival=ArrivalModel(1066),
        exec_model=ExecModel(mu=math.log(300), sigma=0.5, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=(0.62, 0.18, 0.08, 0.12)),
        communication=CommunicationModel(comm_probabilities=(0.62, 0.18, 0.08, 0.12)),
        microservices=(4, 2, 1, 1),
        utilization_interval=11_000_000,
        imbalance_interval=11_000_000,
    )
    original = run_simulation(cfg, collect_trace=True)
    assert original.report.client_requests >= 10_000

    def trace_csv(rows):
        buf = io.StringIO()
        write_trace_csv(rows, buf)
        return buf.getvalue()

    def per_request_csv(result):
        buf = io.StringIO()
        write_requests_csv((result.client_records, result.stage_records), buf)
        return buf.getvalue()

    replayed = run_simulation(
        cfg, replay=replay_trace(original.trace_rows), collect_trace=True
    )
    assert per_request_csv(replayed) == per_request_csv(original)
    assert trace_csv(replayed.trace_rows) == trace_csv(original.trace_rows)


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_metric_identities(experiment1_runs):
    for name, result in experiment1_runs.items():
        assert result.report.stage_requests >= result.report.client_requests
        for rec in chain(result.client_records, result.stage_records):
            assert rec.total == rec.wait + rec.exec, name
            assert rec.slowdown >= 1.0, name
        points = ecdf([r.slowdown for r in result.client_records])
        fs = [f for _, f in points]
        assert all(a <= b for a, b in zip(fs, fs[1:]))
        assert fs[-1] == pytest.approx(1.0)
        for value in result.report.utilization_by_ms.values():
            assert 0.0 <= value <= 1.0, name
