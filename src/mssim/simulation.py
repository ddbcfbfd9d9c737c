"""Experiment execution: wires engine, gateway, instances, and metrics together.

Arrivals are admitted up to end_time; when draining is enabled, admitted
requests run to completion past the cutoff (the report keeps the drain
span separate). Trace rows are recorded at stage invocation time, so the
export of a run replays to the same schedule under identical policies.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional, Sequence

from . import workload
from .config import SimConfig
from .engine import Engine, SimTime, deliver
from .errors import MalformedTrace
from .gateway import (
    LbPolicy,
    Registry,
    select_greedy,
    select_least_connection,
)
from .instance import InstanceState, QueueKind, assign_deadlines
from .metrics import MetricsCollector, RecordColumns, SimReport
from .model import (
    ClientRequest,
    InstanceId,
    Stage,
    critical_path_exec,
    stage_count,
)
from .workload import ReplayPlan, Samplers, TraceColumns, build_client_request


@dataclass
class SimResult:
    """The report plus read-only sequence views of the recorded rows.

    The views hold int64 columns and build a `RequestRecord` or `TraceRow`
    only when a row is read.
    """

    report: SimReport
    client_records: RecordColumns
    stage_records: RecordColumns
    trace_rows: TraceColumns  # ordered by (timestamp, request_id, hops_done)


class Simulation:
    def __init__(
        self,
        cfg: SimConfig,
        replay: Optional[Sequence[ClientRequest]] = None,
        collect_trace: Optional[bool] = None,
    ):
        cfg.validate()
        self.cfg = cfg
        self.workload = cfg.workload()
        self.engine = Engine()
        self.registry = Registry()
        # instances are deployed before the simulation starts; no scaling
        self.instances: list[InstanceState] = []
        for ms, count in enumerate(cfg.microservices):
            for slot in range(count):
                state = InstanceState(InstanceId(ms, slot), cfg.queue_policy)
                self.registry.register(state)
                self.instances.append(state)
        self.collector = MetricsCollector([state.id for state in self.instances])
        self.trace = TraceColumns()
        if collect_trace is None:
            collect_trace = cfg.trace_out is not None
        self.collect_trace = collect_trace
        self._next_request_id = 0
        kind = cfg.queue_policy.kind
        self._deadline_kind: Optional[QueueKind] = kind if kind.has_deadlines else None
        # replayed requests in arrival order, ready to dispatch: each is built,
        # or counted, and given its deadlines when its arrival is scheduled
        self._replay: Optional[Iterator[ClientRequest]] = None
        self.samplers: Optional[Samplers] = None
        if isinstance(replay, ReplayPlan):
            self._replay = replay.admitted(self._deadline_kind, cfg.sla)
        elif replay is not None:
            by_arrival = sorted(replay, key=lambda r: (r.created_at, r.request_id))
            by_arrival.reverse()
            self._replay = _ready(by_arrival, self._deadline_kind, cfg.sla)
        else:
            self.samplers = Samplers(self.workload, cfg.seed)

    # -- event handlers --------------------------------------------------------

    def _schedule_next_arrival(self, now: SimTime) -> None:
        if self.samplers is None:
            req = next(self._replay, None)
            if req is not None and req.created_at <= self.cfg.end_time:
                self.engine.schedule(req.created_at, self._on_arrival, req)
            else:  # the last arrival: free the plan before the run ends
                self._replay = None
        else:
            # looked up on the module, so that a profiler can wrap it
            gap = workload.sample_interarrival(self.samplers)
            if now + gap <= self.cfg.end_time:
                self.engine.schedule(now + gap, self._on_arrival)

    def _on_arrival(self, req: Optional[ClientRequest]) -> None:
        now = self.engine.now
        self._schedule_next_arrival(now)
        if req is None:
            req = build_client_request(self._next_request_id, now, self.samplers)
            self._next_request_id += 1
            if self._deadline_kind is not None:
                assign_deadlines(req, self._deadline_kind, req.sla)
        req.pending = req.stages
        for root in req.root_stages:
            root.client = req
            self._dispatch_stage(root, now)

    def _select_instance(self, ms: int, now: SimTime) -> InstanceState:
        lb = self.cfg.lb_policy
        if lb is LbPolicy.ROUND_ROBIN:
            return self.registry.select_round_robin(ms)
        if lb is LbPolicy.LEAST_CONNECTION:
            return select_least_connection(self.registry.instances(ms))
        return select_greedy(self.registry.instances(ms), now)

    def _dispatch_stage(self, stage: Stage, now: SimTime) -> None:
        state = self._select_instance(stage.target, now)
        stage.arrival = now  # zero gateway delay
        stage.remaining = stage.exec_time
        if self.collect_trace:
            self.trace.append(
                stage.request_id, now, stage.target, stage.exec_time, stage.depth, stage.called_by
            )
        slice_end = state.enqueue(stage, now)
        if slice_end is not None:
            self.engine.schedule(slice_end, self._on_slice_complete, state)

    def _on_slice_complete(self, state: InstanceState) -> None:
        now = self.engine.now
        stage, next_end = state.finish_slice(now)
        if stage is not None:
            self.collector.record_stage(stage.request_id, stage.arrival, now, stage.exec_time)
            client = stage.client
            # no stage of a finished request points back at it, so reference
            # counting frees a sampled tree without the cycle collector
            stage.client = None
            # forward-only asynchronous communication: children go out now,
            # the instance is already free
            for child in stage.children:
                child.client = client
                self._dispatch_stage(child, now)
            client.pending -= 1
            if client.pending == 0:
                self.collector.record_client(
                    client.request_id, client.created_at, now, client.crit_exec
                )
        if next_end is not None:
            self.engine.schedule(next_end, self._on_slice_complete, state)

    def _on_sample(self, sample: tuple[str, SimTime]) -> None:
        now = self.engine.now
        kind, interval = sample
        busy = [state.busy_time_until(now) for state in self.instances]
        self.collector.snapshot(kind, now, busy)
        nxt = now + interval
        if nxt <= self.cfg.end_time:
            self.engine.schedule(nxt, self._on_sample, sample)
        elif now < self.cfg.end_time:
            # final partial window up to the cutoff
            self.engine.schedule(self.cfg.end_time, self._on_sample, sample)

    # -- run ---------------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.cfg
        self._schedule_next_arrival(0)
        for kind, interval in (
            ("util", cfg.utilization_interval),
            ("imb", cfg.imbalance_interval),
        ):
            first = min(interval, cfg.end_time)
            self.engine.schedule(first, self._on_sample, (kind, interval))
        # `deliver` is passed explicitly so that a profiler can wrap it
        self.engine.run_until(cfg.end_time, deliver)
        drain_until = cfg.end_time
        if cfg.drain:
            drain_until = max(cfg.end_time, self.engine.drain(deliver))
        report = self.collector.finalize_report(
            end_time=cfg.end_time,
            drain_until=drain_until,
            seed=cfg.seed,
            lb_policy=cfg.lb_policy.value,
            queue_policy=cfg.queue_policy.kind.value,
        )
        return SimResult(
            report=report,
            client_records=self.collector.client_records,
            stage_records=self.collector.stage_records,
            trace_rows=self.trace.ordered(),
        )


def _ready(
    by_arrival: list[ClientRequest], kind: Optional[QueueKind], sla: SimTime
) -> Iterator[ClientRequest]:
    """Given requests, last to arrive first, popped and made ready to dispatch.

    Each is popped when its arrival is scheduled, so the simulation holds
    no tree it has dispatched. A tree built by hand gets its stage count
    and critical path here.
    """
    while by_arrival:
        req = by_arrival.pop()
        if req.stages == 0:  # built by hand rather than by replay_trace
            req.stages = stage_count(req)
            req.crit_exec = critical_path_exec(req)
        if kind is not None:
            # a request without an SLA of its own takes the run's; it is not
            # written back, so the same requests replay alike under another config
            assign_deadlines(req, kind, req.sla if req.sla > 0 else sla)
        yield req


def _read_trace_in(cfg: SimConfig) -> ReplayPlan:
    """The checked requests of `cfg.trace_in`, refused if a row names an undeployed microservice."""
    # looked up on the module, so that a profiler can wrap them
    with open(cfg.trace_in, encoding="utf-8") as fp:
        rows = workload.read_trace_csv(fp)
    request_id, _, called_ms, _, _, called_by = rows.arrays()
    n = len(cfg.microservices)
    undeployed = (called_ms < 0) | (called_ms >= n) | (called_by >= n)
    if undeployed.any():
        i = int(undeployed.argmax())
        ms = called_ms[i] if not 0 <= called_ms[i] < n else called_by[i]
        raise MalformedTrace(
            f"request {request_id[i]}: microservice {ms} is not deployed (the config has {n})"
        )
    return workload.replay_trace(rows)


def run_simulation(
    cfg: SimConfig,
    replay: Optional[Sequence[ClientRequest]] = None,
    collect_trace: Optional[bool] = None,
) -> SimResult:
    """Run one simulation; replay bypasses all workload samplers.

    Without `replay`, a `cfg.trace_in` file is read and checked before the
    run.
    """
    if replay is None and cfg.trace_in is not None:
        replay = _read_trace_in(cfg)
    sim = Simulation(cfg, replay=replay, collect_trace=collect_trace)
    # the simulation drops a replay plan once its last request is admitted,
    # and given requests once each is dispatched; holding them here would
    # keep them alive until the run ends
    replay = None
    return sim.run()
