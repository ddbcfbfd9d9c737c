"""Microservice instance runtime: queue policies, execution, deadlines.

An instance executes at most one stage slice at a time and is work
conserving: it never idles while its queue is non-empty. Non-fair-share
policies run a stage to completion in one slice; fair share runs
min(remaining, quantum) and re-appends unfinished stages at the tail.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from .engine import SimTime, round_half_up
from .errors import ConfigError, WrongTarget
from .model import (
    CallNode,
    ClientRequest,
    InstanceId,
    StageRequest,
    iter_nodes,
    paths_max_depth,
)


class QueueKind(Enum):
    FCFS = "fcfs"
    SHORTEST_FIRST = "shortest_first"
    FAIR_SHARE = "fair_share"
    EDS = "eds"  # early deadline, equal division of slack
    EXDS = "exds"  # early deadline, execution-time-proportional division of slack

    @property
    def has_deadlines(self) -> bool:
        return self in (QueueKind.EDS, QueueKind.EXDS)


@dataclass(frozen=True)
class QueuePolicy:
    kind: QueueKind
    quantum: SimTime = 500  # fair-share slice length, microseconds

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ConfigError("quantum must be > 0")


@dataclass(slots=True)
class QueuedStage:
    """Queue entry: the stage plus what is needed when it completes."""

    stage: StageRequest
    children: tuple[CallNode, ...] = ()
    client: Any = None  # per-run client bookkeeping, opaque to the instance


class _FifoQueue(deque):
    """Arrival-order queue; fair-share requeues append at the tail."""

    __slots__ = ("exec_sum",)  # sum of remaining exec over queued stages

    def __init__(self) -> None:
        super().__init__()
        self.exec_sum: SimTime = 0

    def push(self, item: QueuedStage) -> None:
        self.append(item)
        self.exec_sum += item.stage.remaining

    def take(self) -> QueuedStage:
        item = self.popleft()
        self.exec_sum -= item.stage.remaining
        return item


class _KeyedQueue(list):
    """Priority queue (a heap) over a policy key; ties by (arrival, request_id, seq)."""

    __slots__ = ("_primary", "_seq", "exec_sum")

    def __init__(self, primary: Optional[str]):
        super().__init__()
        # primary: None (pure fcfs), "remaining", or "deadline"
        self._primary = primary
        self._seq = 0
        self.exec_sum: SimTime = 0

    def push(self, item: QueuedStage) -> None:
        st = item.stage
        tie = (st.arrival_at_instance, st.request_id, self._seq)
        if self._primary is None:
            key = tie
        elif self._primary == "remaining":
            key = (st.remaining, *tie)
        else:
            key = (st.deadline, *tie)
        self._seq += 1
        heapq.heappush(self, (*key, item))
        self.exec_sum += st.remaining

    def take(self) -> QueuedStage:
        item = heapq.heappop(self)[-1]
        self.exec_sum -= item.stage.remaining
        return item


def _make_queue(policy: QueuePolicy):
    if policy.kind is QueueKind.FAIR_SHARE:
        return _FifoQueue()
    if policy.kind.has_deadlines:
        return _KeyedQueue("deadline")
    return _KeyedQueue("remaining" if policy.kind is QueueKind.SHORTEST_FIRST else None)


class InstanceState:
    """One microservice instance: pending queue, in-flight slice, busy time.

    While a slice runs, `current.stage.remaining` is the stage's remaining
    exec at the slice start; finish_slice charges the slice to it.
    """

    __slots__ = (
        "id",
        "quantum",
        "queue",
        "current",
        "slice_start",
        "slice_end",
        "busy_accum",
    )

    def __init__(self, instance_id: InstanceId, policy: QueuePolicy):
        self.id = instance_id
        # longest slice; only fair share cuts a stage short
        self.quantum = policy.quantum if policy.kind is QueueKind.FAIR_SHARE else math.inf
        self.queue = _make_queue(policy)
        self.current: Optional[QueuedStage] = None
        self.slice_start: SimTime = 0
        self.slice_end: SimTime = 0
        self.busy_accum: SimTime = 0

    # -- load accounting ---------------------------------------------------

    def busy_time_until(self, now: SimTime) -> SimTime:
        """Cumulative executing time, including progress of the running slice."""
        busy = self.busy_accum
        if self.current is not None:
            busy += now - self.slice_start
        return busy

    def backlog(self, now: SimTime) -> SimTime:
        """Exec still owed at `now`: queued stages plus the rest of the running one."""
        current = self.current
        if current is None:
            return self.queue.exec_sum
        return self.queue.exec_sum + current.stage.remaining - (now - self.slice_start)

    # the benchmark's per-layer tracer (bench/tracer.py) wraps this name
    load_view = backlog

    # -- queue operations ----------------------------------------------------

    def enqueue(self, item: QueuedStage, now: SimTime) -> Optional[SimTime]:
        """Add a stage; if idle, execution begins immediately.

        Returns the slice-end time when a slice was started, else None.
        """
        if item.stage.target != self.id.ms:
            raise WrongTarget(
                f"stage targets ms {item.stage.target}, instance is {self.id}"
            )
        if self.current is None:
            return self._start(item, now)
        self.queue.push(item)
        return None

    def _start(self, item: QueuedStage, now: SimTime) -> SimTime:
        """Run a slice of `item` from `now`; returns its end time."""
        left = item.stage.remaining
        self.current = item
        self.slice_start = now
        self.slice_end = now + (left if left <= self.quantum else self.quantum)
        return self.slice_end

    def finish_slice(
        self, now: SimTime
    ) -> tuple[Optional[QueuedStage], Optional[SimTime]]:
        """End the running slice at `now`.

        Returns (completed item or None if requeued, next slice end or None).
        """
        item = self.current
        assert item is not None and now == self.slice_end
        ran = now - self.slice_start
        self.busy_accum += ran
        stage = item.stage
        left = stage.remaining - ran
        stage.remaining = left
        queue = self.queue
        if left > 0:
            # fair share: back to the tail and run the head; alone, the stage
            # runs on without touching the queue
            if queue:
                queue.append(item)
                item = queue.popleft()
                queue.exec_sum += left - item.stage.remaining
                self.current = item
                left = item.stage.remaining
            self.slice_start = now
            self.slice_end = end = now + (left if left <= self.quantum else self.quantum)
            return None, end
        if queue:
            return item, self._start(queue.take(), now)
        self.current = None
        return item, None


# --- early-deadline slack division ------------------------------------------


def assign_deadlines_eds(req: ClientRequest) -> None:
    """Equal division of slack across the request's own stage levels.

    slack = sla / (own max depth + 1); a stage at depth k gets
    deadline = created_at + (k + 1) * slack. A depth-0 request therefore
    spreads the full SLA over its single stage. Parallel trees divide by
    the tree's maximum depth, not each inner path's depth.
    """
    if req.sla <= 0:
        raise ConfigError("sla must be > 0 to assign deadlines")
    levels = paths_max_depth(req) + 1
    for node in iter_nodes(req):
        k = node.stage.depth
        node.stage.deadline = req.created_at + round_half_up(
            (k + 1) * req.sla / levels
        )


def assign_deadlines_exds(req: ClientRequest) -> None:
    """Execution-time-proportional division of slack.

    Per level, the slack share is proportional to that level's execution
    time (the maximum across siblings in parallel settings); deadlines are
    the cumulative slack from created_at.
    """
    if req.sla <= 0:
        raise ConfigError("sla must be > 0 to assign deadlines")
    level_exec: dict[int, SimTime] = {}
    for node in iter_nodes(req):
        d = node.stage.depth
        level_exec[d] = max(level_exec.get(d, 0), node.stage.exec_time)
    total = sum(level_exec.values())
    if total <= 0:
        raise ConfigError("total execution time must be > 0 to assign deadlines")
    prefix: dict[int, SimTime] = {}
    acc = 0
    for d in sorted(level_exec):
        acc += level_exec[d]
        prefix[d] = acc
    for node in iter_nodes(req):
        k = node.stage.depth
        node.stage.deadline = req.created_at + round_half_up(
            req.sla * prefix[k] / total
        )


def assign_deadlines(req: ClientRequest, kind: QueueKind) -> None:
    """Deadlines for an EDS or EXDS queue policy."""
    {QueueKind.EDS: assign_deadlines_eds, QueueKind.EXDS: assign_deadlines_exds}[kind](req)
