import csv
import gc
import hashlib
import io
import json
import math
import sys
import tracemalloc
from collections import Counter
from itertools import chain
from types import FunctionType, ModuleType

import pytest

from mssim import metrics, simulation
from mssim.cli import cli_main
from mssim.config import SimConfig, config_from_dict
from mssim.errors import MalformedTrace
from mssim.gateway import LbPolicy
from mssim.instance import InstanceState, QueueKind, QueuePolicy
from mssim.metrics import REQUESTS_CSV_HEADER, write_requests_csv
from mssim.model import Stage
from mssim.simulation import Simulation, run_simulation
from mssim.workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    TraceColumns,
    TraceRow,
    read_trace_csv,
    replay_trace,
    write_trace_csv,
)

from test_spill import SMALL, write_grid_trace


def small_cfg(**overrides) -> SimConfig:
    base = dict(
        end_time=2_000_000,  # 2 s
        seed=3,
        sla=4_000_000,
        arrival=ArrivalModel(mean_interarrival=5000),
        exec_model=ExecModel(mu=math.log(1000), sigma=0.5, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=(0.5, 0.5)),
        communication=CommunicationModel(comm_probabilities=(0.5, 0.5)),
        microservices=(2, 2),
        utilization_interval=500_000,
        imbalance_interval=250_000,
    )
    base.update(overrides)
    return SimConfig(**base)


def requests_csv(result) -> str:
    buf = io.StringIO()
    write_requests_csv((result.client_records, result.stage_records), buf)
    return buf.getvalue()


def test_same_seed_same_output():
    a = run_simulation(small_cfg())
    b = run_simulation(small_cfg())
    assert a.report.to_json() == b.report.to_json()
    assert requests_csv(a) == requests_csv(b)


def test_different_seed_different_output():
    a = run_simulation(small_cfg(seed=3))
    b = run_simulation(small_cfg(seed=4))
    assert a.report.to_json() != b.report.to_json()


def test_record_identities_hold_everywhere():
    result = run_simulation(small_cfg())
    assert result.client_records, "run produced no completed requests"
    for r in chain(result.client_records, result.stage_records):
        assert r.total == r.completed_at - r.created_at
        assert r.total == r.wait + r.exec
        assert r.wait >= 0
        assert r.slowdown == pytest.approx(r.total / r.exec)
        assert r.slowdown >= 1.0


def test_trace_rows_match_stage_count():
    result = run_simulation(small_cfg(drain=True), collect_trace=True)
    assert len(result.trace_rows) == result.report.stage_requests
    for row in result.trace_rows:
        assert row.timestamp <= result.report.drain_until


def test_no_drain_cuts_off_at_end_time():
    cfg = small_cfg(drain=False)
    result = run_simulation(cfg)
    assert result.report.drain_until == cfg.end_time
    for r in chain(result.client_records, result.stage_records):
        assert r.completed_at <= cfg.end_time


def test_drain_completes_all_admitted_requests():
    cfg = small_cfg(drain=True)
    result = run_simulation(cfg, collect_trace=True)
    # every client request whose tree was started also finished
    started = {row.request_id for row in result.trace_rows if row.hops_done == 0}
    finished = {r.request_id for r in result.client_records}
    assert started == finished
    assert result.report.drain_until >= cfg.end_time


def test_replay_reproduces_run_byte_for_byte():
    cfg = small_cfg()
    original = run_simulation(cfg, collect_trace=True)
    requests = replay_trace(original.trace_rows)
    replayed = run_simulation(cfg, replay=requests, collect_trace=True)
    assert replayed.report.to_json() == original.report.to_json()
    assert requests_csv(replayed) == requests_csv(original)
    assert replayed.trace_rows == original.trace_rows


@pytest.mark.xfail(
    strict=True, raises=MalformedTrace,
    reason="a six-column trace row cannot name its parent when two stages of one "
    "level share a microservice (ROADMAP item 5)",
)
def test_fan_out_two_at_depth_two_replays_byte_for_byte():
    cfg = SimConfig(
        end_time=200_000,
        seed=3,
        microservices=(1, 1, 1, 1),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=(0.25,) * 4, fanout=2),
        communication=CommunicationModel(comm_probabilities=(0.25,) * 4, fanout=2),
    )
    original = run_simulation(cfg, collect_trace=True)
    # today: "request 2: ambiguous parent for hops 2 called_by 0"
    replayed = run_simulation(cfg, replay=replay_trace(original.trace_rows), collect_trace=True)
    assert replayed.report.to_json() == original.report.to_json()
    assert requests_csv(replayed) == requests_csv(original)
    assert replayed.trace_rows == original.trace_rows


def test_a_sampled_run_builds_only_the_requests_it_admits(monkeypatch):
    built = []
    build = simulation.build_client_request
    monkeypatch.setattr(
        simulation, "build_client_request", lambda *args: built.append(args[0]) or build(*args)
    )
    report = run_simulation(small_cfg(drain=True)).report  # every admitted request completes
    assert report.client_requests > 0
    assert len(built) == report.client_requests


@pytest.mark.parametrize("kind", list(QueueKind), ids=lambda kind: kind.value)
def test_a_completion_after_a_completion_takes_its_seq_after_the_children(kind):
    # request 0's root ends at 10 on ms 0; its child starts on ms 1 and
    # request 1's root on ms 0, both to end at 15. Request 1's completion
    # takes its seq after the child is dispatched, so it fires second
    rows = [
        TraceRow(0, 0, 0, 10, 0),
        TraceRow(0, 0, 1, 5, 1, called_by=0),
        TraceRow(1, 0, 0, 5, 0),
    ]
    cfg = small_cfg(microservices=(1, 1), queue_policy=QueuePolicy(kind, quantum=500))
    result = run_simulation(cfg, replay=replay_trace(rows))
    stages = [(r.request_id, r.completed_at) for r in result.stage_records]
    assert stages == [(0, 10), (0, 15), (1, 15)]
    assert [r.request_id for r in result.client_records] == [0, 1]


def test_a_fair_share_run_fires_one_event_per_arrival_completion_and_sample(monkeypatch):
    # the benchmark's exp-fs-greedy model at 2 s: quantum boundaries are not events
    shares = (0.62, 0.18, 0.08, 0.12)
    cfg = SimConfig(
        end_time=2_000_000,
        seed=1,
        sla=4_000_000,
        arrival=ArrivalModel(mean_interarrival=1066),
        exec_model=ExecModel(mu=4.912514296647084, sigma=2.5, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=shares),
        communication=CommunicationModel(comm_probabilities=shares),
        microservices=(4, 2, 1, 1),
        queue_policy=QueuePolicy(QueueKind.FAIR_SHARE, quantum=500),
        lb_policy=LbPolicy.GREEDY,
        utilization_interval=5_000_000,
        imbalance_interval=1_000_000,
        drain=True,
    )
    fired = Counter()

    def fire(handler, payload):
        fired[handler.__name__] += 1
        handler(payload)

    # the `fire` argument of the engine's run_until and drain
    monkeypatch.setattr(simulation, "deliver", fire)
    result = run_simulation(cfg)
    stages = len(result.stage_records)
    # one sample at 2 s for the 5 s utilisation interval, two for imbalance
    assert fired == {
        "_on_arrival": len(result.client_records), "_on_slice_complete": stages, "_on_sample": 3
    }
    assert sum(-(-r.exec // 500) for r in result.stage_records) > 2 * stages  # slices


def reachable(root):
    """Everything `root` reaches, as bench/tracer.py walks it."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_run_lets_go_of_its_replay_plan():
    plan = replay_trace(run_simulation(small_cfg(), collect_trace=True).trace_rows)
    sim = Simulation(small_cfg(end_time=1_000_000), replay=plan)  # half the plan is later
    sim.run()
    assert not any(obj is plan for obj in reachable(sim))


def test_the_replay_set_up_lets_go_of_the_read_trace(tmp_path, monkeypatch):
    cfg = small_cfg(arrival=ArrivalModel(mean_interarrival=1000))
    trace = tmp_path / "trace.csv"
    with open(trace, "w", encoding="utf-8", newline="") as fp:
        write_trace_csv(run_simulation(cfg, collect_trace=True).trace_rows, fp)
    read = {}
    checked_rows = simulation._checked_rows

    def checked_rows_then_reset(cfg):
        # the heap held once the trace is read; the peak from here on is set-up's
        rows = checked_rows(cfg)
        read["rows"] = len(rows)
        read["bytes"] = sum(col.nbytes for col in rows.arrays())
        read["held"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return rows

    monkeypatch.setattr(simulation, "_checked_rows", checked_rows_then_reset)
    cfg = small_cfg(trace_in=str(trace))
    tracemalloc.start()
    try:
        plan = simulation._read_trace_in(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2000 < read["rows"] < 10_000 and len(plan.called_ms) == read["rows"]
    # each input column is freed once narrowed and its narrowed copy once
    # sorted; holding the input beside the sorted plan took more than it
    assert peak - read["held"] < read["bytes"] / 2


@pytest.mark.parametrize("replayed", [False, True], ids=["sampled", "replayed"])
@pytest.mark.parametrize("kind", list(QueueKind), ids=lambda kind: kind.value)
def test_no_finished_stage_outlives_its_completion(kind, replayed):
    # about 60% busy, with a sample every 20 ms: most samples find requests
    # in flight whose first stages have completed
    cfg = small_cfg(
        queue_policy=QueuePolicy(kind, quantum=500),
        arrival=ArrivalModel(mean_interarrival=1000),
        imbalance_interval=20_000,
    )
    plan = replay_trace(run_simulation(cfg, collect_trace=True).trace_rows) if replayed else None
    sim = Simulation(cfg, replay=plan)
    plan = None
    on_sample = sim._on_sample
    in_flight = []

    def check(sample):
        dispatched = [
            obj for obj in reachable(sim) if type(obj) is Stage and obj.arrival is not None
        ]
        assert not [stage for stage in dispatched if stage.remaining == 0]
        in_flight.append(len(dispatched))
        on_sample(sample)

    sim._on_sample = check
    sim.run()
    assert len(in_flight) > 100 and sum(map(bool, in_flight)) > len(in_flight) / 2


@pytest.mark.parametrize("kind", [QueueKind.FCFS, QueueKind.FAIR_SHARE])
def test_one_request_list_replays_alike_twice(kind):
    cfg = small_cfg(queue_policy=QueuePolicy(kind, quantum=500))
    requests = replay_trace(run_simulation(cfg, collect_trace=True).trace_rows)
    first = run_simulation(cfg, replay=requests)
    second = run_simulation(cfg, replay=requests)
    assert second.report.to_json() == first.report.to_json()
    assert requests_csv(second) == requests_csv(first)


def test_replay_does_not_keep_the_sla_of_an_earlier_run():
    # loaded enough that EDS order, and so the output, depends on the SLA
    load = dict(
        arrival=ArrivalModel(mean_interarrival=1000), queue_policy=QueuePolicy(QueueKind.EDS)
    )
    rows = run_simulation(small_cfg(**load), collect_trace=True).trace_rows
    requests = replay_trace(rows)
    first = run_simulation(small_cfg(sla=4_000_000, **load), replay=requests)
    again = run_simulation(small_cfg(sla=5_000, **load), replay=requests)
    fresh = run_simulation(small_cfg(sla=5_000, **load), replay=replay_trace(rows))
    assert requests_csv(fresh) != requests_csv(first)
    assert again.report.to_json() == fresh.report.to_json()
    assert requests_csv(again) == requests_csv(fresh)


@pytest.mark.parametrize("lb", list(LbPolicy))
def test_every_load_balancer_runs(lb):
    result = run_simulation(small_cfg(lb_policy=lb, end_time=500_000))
    assert result.report.lb_policy == lb.value
    assert result.report.client_requests > 0


@pytest.mark.parametrize(
    "policy,name",
    [
        (QueuePolicy(QueueKind.FCFS), "fcfs"),
        (QueuePolicy(QueueKind.SHORTEST_FIRST), "shortest_first"),
        (QueuePolicy(QueueKind.FAIR_SHARE, quantum=500), "fair_share"),
        (QueuePolicy(QueueKind.EDS), "eds"),
        (QueuePolicy(QueueKind.EXDS), "exds"),
    ],
)
def test_every_queue_policy_runs(policy, name):
    result = run_simulation(small_cfg(queue_policy=policy, end_time=500_000))
    assert result.report.queue_policy == name
    assert result.report.client_requests > 0


@pytest.mark.parametrize("lb", list(LbPolicy), ids=lambda lb: lb.value)
@pytest.mark.parametrize("kind", list(QueueKind), ids=lambda kind: kind.value)
def test_every_stage_is_enqueued_on_an_instance_of_its_target(monkeypatch, kind, lb):
    # no instance checks a stage's target: the gateway chooses among the target's instances
    enqueued = []
    enqueue = InstanceState.enqueue  # FairShareState inherits it

    def recorded(state, stage, now):
        enqueued.append((stage.target, state.id.ms))
        return enqueue(state, stage, now)

    monkeypatch.setattr(InstanceState, "enqueue", recorded)
    cfg = small_cfg(queue_policy=QueuePolicy(kind, quantum=500), lb_policy=lb, end_time=500_000)
    sampled = run_simulation(cfg, collect_trace=True)
    replayed = run_simulation(cfg, replay=replay_trace(sampled.trace_rows), collect_trace=True)
    assert len(enqueued) == len(sampled.trace_rows) + len(replayed.trace_rows)
    assert {ms for _, ms in enqueued} == {0, 1}
    assert all(target == ms for target, ms in enqueued)


@pytest.mark.parametrize("lb", list(LbPolicy), ids=lambda lb: lb.value)
@pytest.mark.parametrize("ms", [-1, 2])
def test_a_plan_naming_an_undeployed_microservice_is_refused_before_the_first_event(
    monkeypatch, ms, lb
):
    rows = [
        TraceRow(0, 0, 0, 10, 0),
        TraceRow(1, 5, 1, 10, 0),
        TraceRow(1, 5, ms, 10, 1, called_by=1),
    ]

    def fire(handler, payload):
        raise AssertionError(f"{handler.__name__} fired")

    # the `fire` argument of the engine's run_until and drain
    monkeypatch.setattr(simulation, "deliver", fire)
    with pytest.raises(MalformedTrace) as refused:
        run_simulation(small_cfg(lb_policy=lb), replay=replay_trace(rows))
    # the message a --trace-in row naming it gets
    assert str(refused.value) == f"request 1: microservice {ms} is not deployed (the config has 2)"


def test_utilization_and_imbalance_in_range():
    result = run_simulation(small_cfg())
    assert result.report.utilization_by_ms, "no utilization windows recorded"
    for value in result.report.utilization_by_ms.values():
        assert 0.0 <= value <= 1.0
    for value in result.report.imbalance_by_ms.values():
        assert 0.0 <= value <= 0.5


def test_stage_count_is_at_least_client_count():
    result = run_simulation(small_cfg())
    assert result.report.stage_requests >= result.report.client_requests


def test_trace_rows_are_in_dispatch_order(tmp_path, monkeypatch):
    # the grid trace dispatches stages of several requests and depths at one
    # instant, so dispatch order is not (timestamp, request_id, hops_done) order
    doc = dict(SMALL, trace_in=str(write_grid_trace(tmp_path / "grid.csv")))
    plan = simulation._read_trace_in(config_from_dict(doc))  # before recording: reading may append
    dispatched = []
    append = TraceColumns.append

    def recorded(self, *row):
        dispatched.append(TraceRow(*row))
        append(self, *row)

    monkeypatch.setattr(TraceColumns, "append", recorded)
    rows = run_simulation(config_from_dict(doc), replay=plan, collect_trace=True).trace_rows
    assert len(dispatched) == 1200 and rows == dispatched
    assert dispatched != sorted(dispatched, key=lambda r: (r.timestamp, r.request_id, r.hops_done))
    # the command line spills the rows in blocks of 3 and writes them as dispatched
    library = dispatched.copy()
    dispatched.clear()
    monkeypatch.setattr(metrics, "BLOCK", 3)
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["--config", str(config), "--out", str(out),
                     "--trace-out", str(out / "trace.csv")]) == 0
    monkeypatch.undo()
    assert dispatched == library
    buf = io.StringIO()
    write_trace_csv(dispatched, buf)
    assert (out / "trace.csv").read_text(encoding="utf-8") == buf.getvalue()


def test_record_columns_hold_at_most_40_bytes_per_record():
    sim = Simulation(small_cfg(arrival=ArrivalModel(mean_interarrival=1000)))
    sim.run()
    views = (sim.collector.client_records, sim.collector.stage_records)
    records = sum(map(len, views))
    assert records > 3000
    held = sum(sys.getsizeof(col) for view in views for col in view.columns())
    assert held / records <= 40


def artifacts(result) -> dict[str, str]:
    trace = io.StringIO()
    write_trace_csv(result.trace_rows, trace)
    return {"report.json": result.report.to_json(), "requests.csv": requests_csv(result),
            "trace.csv": trace.getvalue()}


def test_a_run_past_2_31_us_widens_only_its_time_columns():
    # 2,200 s is past 2**31 us (about 35.8 min); the digests were taken
    # when every column was int64, the report's remade when its means
    # became exactly rounded sums over their count
    cfg = small_cfg(
        end_time=2_200_000_000, arrival=ArrivalModel(mean_interarrival=2_000_000),
        utilization_interval=100_000_000, imbalance_interval=50_000_000,
    )
    result = run_simulation(cfg, collect_trace=True)
    for records in (result.client_records, result.stage_records):
        assert [col.typecode for col in records.columns()] == ["i", "q", "q", "i"]
        assert records.completed_at[-1] >= 2**31
    assert [col.typecode for col in result.trace_rows.columns()] == ["i", "q", "i", "i", "i", "i"]
    got = artifacts(result)
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in got.items()} == {
        "report.json": "a4629fe9b49794dedf9c8d0db6ef540edf9cff2fdbfd0ced99d14ac0dfd5bed5",
        "requests.csv": "1b336b6f11d5a0a37d5de43715fbc752c31f5031b210a320a9e43b69c9011d85",
        "trace.csv": "2bfb31b7fc29e357cb215d6ae845438081adea9be7d08ab81a72a1a22064cb00",
    }
    # requests.csv as a csv.writer writes each record's own properties
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(REQUESTS_CSV_HEADER)
    for records in (result.client_records, result.stage_records):
        writer.writerows(
            (r.request_id, r.scope, r.created_at, r.completed_at, r.total, r.exec, r.wait, r.slowdown)
            for r in records
        )
    assert got["requests.csv"] == want.getvalue()
    # the written trace reads back into the same widths and replays alike
    rows = read_trace_csv(io.StringIO(got["trace.csv"]))
    assert [col.typecode for col in rows.columns()] == ["i", "q", "i", "i", "i", "i"]
    assert artifacts(run_simulation(cfg, replay=replay_trace(rows), collect_trace=True)) == got
