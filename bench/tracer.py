"""Per-layer tracing of one mssim run, done from outside the package.

`install` replaces public functions and methods of mssim's modules with
wrappers that record one span per call: (name, start, end, parent). Spans
are kept in flat arrays and turned into per-layer metrics after the run.
A layer's self time is its spans' durations minus the time their child
spans cover, so the wrapped layers partition the run without overlap.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Any, Callable, Optional

import numpy as np

# (metric, unit) for every per-layer metric the traced run reports
LAYER_METRICS = [
    ("config.load_s", "s"),
    ("workload.build_s", "s"),
    ("workload.requests_built", "count"),
    ("workload.interarrival_s", "s"),
    ("workload.trace_read_s", "s"),
    ("workload.trace_replay_s", "s"),
    ("workload.trace_rows", "count"),
    ("workload.trace_write_s", "s"),
    ("engine.events", "count"),
    ("engine.schedules", "count"),
    ("engine.schedule_s", "s"),
    ("engine.loop_self_s", "s"),
    ("engine.peak_pending", "count"),
    ("gateway.selections", "count"),
    ("gateway.select_s", "s"),
    ("instance.enqueue_s", "s"),
    ("instance.slices", "count"),
    ("instance.finish_slice_s", "s"),
    ("instance.completions_per_slice", "ratio"),
    ("instance.load_views", "count"),
    ("instance.load_view_s", "s"),
    ("instance.deadline_s", "s"),
    ("instance.peak_queue_len", "count"),
    ("model.tree_walk_s", "s"),
    ("metrics.records", "count"),
    ("metrics.record_s", "s"),
    ("metrics.finalize_s", "s"),
    ("metrics.retained_bytes_per_stage", "B"),
    ("simulation.self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.artifact_bytes", "B"),
]


class Tracer:
    """Records spans and counters; single-threaded, like the simulator."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self._open: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def traced(self, span_name: str, fn: Callable) -> Callable:
        """fn wrapped so that every call records a span named span_name."""
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        start, end, names, parents, open_ = (
            self.start, self.end, self.name, self.parent, self._open
        )
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        span_name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace owner.attr by a traced version; `after(args, result)` runs outside the span."""
        inner = self.traced(span_name, getattr(owner, attr))
        if after is None:
            setattr(owner, attr, inner)
            return

        def with_after(*args: Any, **kwargs: Any) -> Any:
            result = inner(*args, **kwargs)
            after(args, result)
            return result

        setattr(owner, attr, with_after)

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def by_name(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, span count) per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = np.bincount(a["name"], weights=dur - covered, minlength=len(self.names))
        counts = np.bincount(a["name"], minlength=len(self.names))
        return (
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: int(counts[i]) for i, n in enumerate(self.names)},
        )

    def last_end(self, span_name: str) -> float:
        nid = self._ids[span_name]
        a = self.arrays()
        return float(a["end"][a["name"] == nid].max())


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every mssim layer that a CLI run calls."""
    from mssim import cli, simulation, workload
    from mssim.engine import Engine
    from mssim.gateway import Registry
    from mssim.instance import InstanceState
    from mssim.metrics import MetricsCollector

    t = tracer
    t.wrap(cli, "cli_main", "cli.main")
    t.wrap(cli, "load_config", "config.load")
    t.wrap(cli, "run_simulation", "simulation.run_simulation")
    t.wrap(cli, "write_trace_csv", "workload.trace_write")
    t.wrap(workload, "read_trace_csv", "workload.trace_read",
           after=lambda args, rows: t.count("workload.trace_rows", len(rows)))
    t.wrap(workload, "replay_trace", "workload.trace_replay")
    t.wrap(workload, "sample_interarrival", "workload.interarrival")
    t.wrap(simulation, "build_client_request", "workload.build")
    t.wrap(simulation, "critical_path_exec", "model.tree_walk")
    t.wrap(simulation, "stage_count", "model.tree_walk")
    t.wrap(simulation, "assign_deadlines", "instance.deadline")
    t.wrap(simulation, "select_least_connection", "gateway.select")
    t.wrap(simulation, "select_greedy", "gateway.select")
    t.wrap(Registry, "select_round_robin", "gateway.select")
    t.wrap(simulation.Simulation, "run", "simulation.run")
    # every event the loop hands to the simulation becomes a span of its own,
    # so the loop's self time is heap work and loop overhead only
    for attr in ("run_until", "drain"):
        loop = getattr(Engine, attr)

        def with_traced_dispatch(self, *args, _loop=loop):
            *head, dispatch = args
            return _loop(self, *head, t.traced("simulation.event", dispatch))

        setattr(Engine, attr, with_traced_dispatch)
        t.wrap(Engine, attr, "engine.loop")
    t.wrap(Engine, "schedule", "engine.schedule",
           after=lambda args, _: t.peak("engine.peak_pending", args[0].pending()))
    t.wrap(InstanceState, "enqueue", "instance.enqueue",
           after=lambda args, _: t.peak("instance.peak_queue_len", len(args[0].queue)))

    def count_completion(args: tuple, result: tuple) -> None:
        if result[0] is not None:
            t.count("instance.completions")

    t.wrap(InstanceState, "finish_slice", "instance.finish_slice", after=count_completion)
    t.wrap(InstanceState, "load_view", "instance.load_view")
    t.wrap(MetricsCollector, "record_stage", "metrics.record")
    t.wrap(MetricsCollector, "record_client", "metrics.record")
    t.wrap(MetricsCollector, "finalize_report", "metrics.finalize")


def retained_bytes(root: Any) -> int:
    """Bytes of every object reachable from root, each counted once."""
    seen: set[int] = set()
    todo = [root]
    total = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    return total


def layer_metrics(tracer: Tracer, stage_requests: int, collector: Any, artifact_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed as in LAYER_METRICS."""
    self_s, n = tracer.by_name()
    s = lambda *names: sum(self_s.get(k, 0.0) for k in names)
    c = lambda name: n.get(name, 0)
    k = tracer.counters
    slices = c("instance.finish_slice")
    return {
        "config.load_s": s("config.load"),
        "workload.build_s": s("workload.build"),
        "workload.requests_built": c("workload.build"),
        "workload.interarrival_s": s("workload.interarrival"),
        "workload.trace_read_s": s("workload.trace_read"),
        "workload.trace_replay_s": s("workload.trace_replay"),
        "workload.trace_rows": k.get("workload.trace_rows", 0),
        "workload.trace_write_s": s("workload.trace_write"),
        "engine.events": c("simulation.event"),
        "engine.schedules": c("engine.schedule"),
        "engine.schedule_s": s("engine.schedule"),
        "engine.loop_self_s": s("engine.loop"),
        "engine.peak_pending": k.get("engine.peak_pending", 0),
        "gateway.selections": c("gateway.select"),
        "gateway.select_s": s("gateway.select"),
        "instance.enqueue_s": s("instance.enqueue"),
        "instance.slices": slices,
        "instance.finish_slice_s": s("instance.finish_slice"),
        "instance.completions_per_slice": k.get("instance.completions", 0) / slices if slices else 0.0,
        "instance.load_views": c("instance.load_view"),
        "instance.load_view_s": s("instance.load_view"),
        "instance.deadline_s": s("instance.deadline"),
        "instance.peak_queue_len": k.get("instance.peak_queue_len", 0),
        "model.tree_walk_s": s("model.tree_walk"),
        "metrics.records": c("metrics.record"),
        "metrics.record_s": s("metrics.record"),
        "metrics.finalize_s": s("metrics.finalize"),
        "metrics.retained_bytes_per_stage": retained_bytes(collector) / stage_requests,
        "simulation.self_s": s("simulation.run", "simulation.event"),
        "cli.write_s": tracer.last_end("cli.main") - tracer.last_end("simulation.run_simulation"),
        "cli.artifact_bytes": artifact_bytes,
    }
