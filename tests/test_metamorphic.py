"""Metamorphic relations between whole runs: an oracle that needs no model of the simulator.

Each relation says how the records of two runs of related configs must
relate, so it needs no expected values and shares no code with the engine
(Chen, Cheung & Yiu 1998; Segura et al., IEEE TSE 2016). Every run is the
benchmark config for 2 s at seeds 1-3, and a run's client or stage
records are compared as sorted multisets of
(request_id, created_at, completed_at, exec).
"""

import json

import pytest

from mssim.config import config_from_dict
from mssim.simulation import run_simulation
from test_call_counts import CONFIGS

BASE = json.loads((CONFIGS / "exp-fcfs-rr.json").read_text(encoding="utf-8"))
SEEDS = (1, 2, 3)
QUEUE_POLICIES = ("fcfs", "shortest_first", "fair_share", "eds", "exds")
LB_POLICIES = ("round_robin", "least_connection", "greedy")


def records(seed, **changes):
    """(client rows, stage rows) of a 2 s run, each a sorted list of
    (request_id, created_at, completed_at, exec)."""
    cfg = config_from_dict({**BASE, "end_time": 2_000_000, "seed": seed, **changes})
    result = run_simulation(cfg)
    return tuple(
        sorted((r.request_id, r.created_at, r.completed_at, r.exec) for r in view)
        for view in (result.client_records, result.stage_records)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_deadlines_at_depth_zero_order_as_fcfs(seed):
    # one level: every stage's deadline is created_at + sla, and created_at
    # is its arrival, so the deadline order is the arrival order
    depth0 = {"0": 1.0}
    fcfs = records(seed, depth=depth0, queue_policy="fcfs")
    assert fcfs[1]
    for kind in ("eds", "exds"):
        assert records(seed, depth=depth0, queue_policy=kind) == fcfs, kind


@pytest.mark.parametrize("seed", SEEDS)
def test_fair_share_with_a_quantum_past_every_exec_is_fcfs(seed):
    fcfs = records(seed, queue_policy="fcfs")
    assert records(seed, queue_policy={"kind": "fair_share", "quantum": 10**12}) == fcfs
    # the control: with the benchmark's quantum, stages are preempted
    assert records(seed, queue_policy={"kind": "fair_share", "quantum": 500}) != fcfs


@pytest.mark.parametrize("seed", SEEDS)
def test_shortest_first_with_equal_execs_is_fcfs(seed):
    # every exec is the benchmark's mean exec, so that queues still form
    mu, sigma = BASE["exec"]["mu"], BASE["exec"]["sigma"]
    equal = {**BASE["exec"], "mu": mu + sigma**2 / 2, "sigma": 0}
    assert records(seed, exec=equal, queue_policy="shortest_first") == records(
        seed, exec=equal, queue_policy="fcfs"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_no_policy_changes_the_workload(seed):
    # the requests, their arrivals and their critical-path execs are drawn
    # before any scheduling, whatever the policies
    seen = {}
    for kind in QUEUE_POLICIES:
        for lb in LB_POLICIES:
            clients = records(seed, queue_policy=kind, lb_policy=lb)[0]
            seen[kind, lb] = [(rid, created, exec_) for rid, created, _, exec_ in clients]
    first = seen["fcfs", "round_robin"]
    assert first
    assert all(triples == first for triples in seen.values()), [
        key for key, triples in seen.items() if triples != first
    ]
