"""Experiment execution: wires engine, gateway, instances, and metrics together.

Arrivals are admitted up to end_time; when draining is enabled, admitted
requests run to completion past the cutoff (the report keeps the drain
span separate). Trace rows are recorded at stage invocation time, so the
export of a run replays to the same schedule under identical policies.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count
from typing import BinaryIO, Callable, Optional

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
from .instance import FairShareState, InstanceState, QueueKind, assign_deadlines
from .metrics import MetricsCollector, RecordColumns, SimReport
from .model import ClientRequest, InstanceId, Stage
# the benchmark's per-layer tracer (bench/tracer.py) wraps these names
from .model import critical_path_exec, stage_count  # noqa: F401
from .workload import ReplayPlan, Samplers, TraceColumns, build_client_request


@dataclass
class SimResult:
    """The report plus read-only sequence views of the recorded rows.

    The views hold int32 columns, each widened to int64 once a value needs
    it, and build a `RequestRecord` or `TraceRow` only when a row is read.
    A run that spilled keeps most of its rows in the spill file, which
    must stay open while the views are read.
    """

    report: SimReport
    client_records: RecordColumns
    stage_records: RecordColumns
    trace_rows: TraceColumns  # the run's own columns, sorted by (timestamp, request_id, hops_done)


class Simulation:
    def __init__(
        self,
        cfg: SimConfig,
        replay: Optional[ReplayPlan] = None,
        collect_trace: Optional[bool] = None,
    ):
        cfg.validate()
        if replay is not None:
            _check_deployed(replay, len(cfg.microservices))
        self.cfg = cfg
        self.engine = Engine()
        self.registry = Registry()
        # instances are deployed before the simulation starts; no scaling
        self.instances: list[InstanceState] = []
        policy = cfg.queue_policy
        make = FairShareState if policy.kind is QueueKind.FAIR_SHARE else InstanceState
        for ms, n in enumerate(cfg.microservices):
            for slot in range(n):
                state = make(InstanceId(ms, slot), policy)
                self.registry.register(state)
                self.instances.append(state)
        self.collector = MetricsCollector([state.id for state in self.instances])
        self.trace = TraceColumns()
        if collect_trace is None:
            collect_trace = cfg.trace_out is not None
        self.collect_trace = collect_trace
        kind = cfg.queue_policy.kind
        deadline_kind = kind if kind.has_deadlines else None
        # the requests up to end_time in arrival order, each built and given
        # its deadlines when its arrival is scheduled
        if replay is None:
            self._arrivals = _sampled(Samplers(cfg.workload(), cfg.seed), cfg, deadline_kind)
        else:
            self._arrivals = replay.admitted(deadline_kind, cfg.sla, cfg.end_time)

    # -- event handlers --------------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        req = next(self._arrivals, None)
        if req is not None:
            self.engine.schedule(req.created_at, self._on_arrival, req)

    def _on_arrival(self, req: ClientRequest) -> None:
        now = self.engine.now
        self._schedule_next_arrival()
        req.pending = req.stages
        # nothing reads the roots after this, so each stage is freed once its
        # children are dispatched, not when its request completes
        roots, req.root_stages = req.root_stages, ()
        for root in roots:
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
        end = state.enqueue(stage, now)
        if end is not None:
            # a new completion: a start's is queued, a fair-share join's moved
            pending = state.pending
            if pending is None:
                state.pending = self.engine.schedule(end, self._on_slice_complete, state)
            else:
                state.pending = self.engine.move(pending, end)

    def _on_slice_complete(self, state: InstanceState) -> None:
        now = self.engine.now
        stage, next_end = state.finish_slice(now)
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
        # the next chain's completion takes its seq only now, after the
        # children and the record (the same-instant order, `mssim.engine`)
        state.pending = (
            None if next_end is None
            else self.engine.schedule(next_end, self._on_slice_complete, state)
        )

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
        self._schedule_next_arrival()
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
        self.trace.sort()
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
            trace_rows=self.trace,
        )


def _sampled(
    samplers: Samplers, cfg: SimConfig, kind: Optional[QueueKind]
) -> Iterator[ClientRequest]:
    """Sampled requests in arrival order up to `cfg.end_time`, each built when its gap is drawn."""
    now = 0
    for request_id in count():
        # looked up on the modules, so that a profiler can wrap them
        now += workload.sample_interarrival(samplers)
        if now > cfg.end_time:
            return
        req = build_client_request(request_id, now, samplers)
        if kind is not None:
            assign_deadlines(req, kind, cfg.sla)
        yield req


def _read_trace_in(cfg: SimConfig) -> ReplayPlan:
    """The checked requests of `cfg.trace_in`, refused if a row names an undeployed microservice."""
    # looked up on the module, so that a profiler can wrap it; no name here
    # holds the read rows, so replay_trace frees each column once it is sorted
    return workload.replay_trace(_checked_rows(cfg))


def _checked_rows(cfg: SimConfig) -> TraceColumns:
    """The rows of `cfg.trace_in`, refused if one names an undeployed microservice."""
    try:
        # looked up on the module, so that a profiler can wrap it
        with open(cfg.trace_in, encoding="utf-8") as fp:
            rows = workload.read_trace_csv(fp)
    except OSError as e:  # missing, a directory, unreadable
        raise MalformedTrace(f"trace_in {cfg.trace_in}: {e.strerror}") from None
    except UnicodeDecodeError as e:  # decoded in chunks, so the bytes are read again per line
        raise MalformedTrace(f"trace_in {cfg.trace_in}: {_not_utf8(cfg.trace_in, e)}") from None
    except csv.Error as e:  # read_trace_csv names the line
        raise MalformedTrace(f"trace_in {cfg.trace_in}: {e}") from None
    request_id, _, called_ms, _, _, called_by = rows.arrays()
    n = len(cfg.microservices)
    # in file order and before the forest checks; `Simulation` checks the plan again
    undeployed = (called_ms < 0) | (called_ms >= n) | (called_by >= n)
    if undeployed.any():
        i = int(undeployed.argmax())
        ms = called_ms[i] if not 0 <= called_ms[i] < n else called_by[i]
        raise _not_deployed(request_id[i], ms, n)
    return rows


def _check_deployed(plan: ReplayPlan, n: int) -> None:
    """Refuse a plan that names a microservice outside [0, n), by its first such row.

    A stage's caller is its parent's target, so the targets cover the callers.
    """
    called_ms = plan.called_ms
    undeployed = (called_ms < 0) | (called_ms >= n)
    if undeployed.any():
        row = int(undeployed.argmax())
        request = int(plan.starts.searchsorted(row, side="right")) - 1
        raise _not_deployed(plan.request_id[request], called_ms[row], n)


def _not_deployed(request_id: int, ms: int, n: int) -> MalformedTrace:
    return MalformedTrace(
        f"request {request_id}: microservice {ms} is not deployed (the config has {n})"
    )


def _not_utf8(path: str, error: UnicodeDecodeError) -> str:
    """`line N: not UTF-8 (reason)` for the first line of `path` that does not decode."""
    with open(path, "rb") as fp:
        for n, line in enumerate(fp, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                return f"line {n}: not UTF-8 ({e.reason})"
    return f"not UTF-8 ({error.reason})"


def run_simulation(
    cfg: SimConfig,
    replay: Optional[ReplayPlan] = None,
    collect_trace: Optional[bool] = None,
    _spill: Optional[Callable[[], BinaryIO]] = None,
) -> SimResult:
    """Run one simulation; replay bypasses all workload samplers.

    Without `replay`, a `cfg.trace_in` file is read and checked before the
    run. `_spill`, which the command line passes, opens the file that the
    run's records and trace rows are flushed to; it is called once the
    trace is accepted, before the first event.
    """
    if replay is None and cfg.trace_in is not None:
        replay = _read_trace_in(cfg)
    sim = Simulation(cfg, replay=replay, collect_trace=collect_trace)
    # the simulation drops a replay plan once its last request is admitted;
    # holding it here would keep it alive until the run ends
    replay = None
    if _spill is not None:
        spill = _spill()
        for view in (sim.collector.client_records, sim.collector.stage_records, sim.trace):
            view.spill(spill)
    return sim.run()
