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
from typing import Optional

from .engine import SimTime, round_half_up
from .errors import ConfigError, WrongTarget
from .model import ClientRequest, InstanceId, Stage


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


class _FifoQueue(deque):
    """Arrival-order queue; fair-share requeues append at the tail."""

    __slots__ = ("exec_sum",)  # sum of remaining exec over queued stages

    def __init__(self) -> None:
        super().__init__()
        self.exec_sum: SimTime = 0

    def push(self, stage: Stage) -> None:
        self.append(stage)
        self.exec_sum += stage.remaining

    def take(self) -> Stage:
        stage = self.popleft()
        self.exec_sum -= stage.remaining
        return stage


class _KeyedQueue(list):
    """Priority queue (a heap) over a policy key; ties by (arrival, request_id, seq)."""

    __slots__ = ("_primary", "_seq", "exec_sum")

    def __init__(self, primary: Optional[str]):
        super().__init__()
        # primary: None (pure fcfs), "remaining", or "deadline"
        self._primary = primary
        self._seq = 0
        self.exec_sum: SimTime = 0

    def push(self, st: Stage) -> None:
        tie = (st.arrival, st.request_id, self._seq)
        if self._primary is None:
            key = tie
        elif self._primary == "remaining":
            key = (st.remaining, *tie)
        else:
            key = (st.deadline, *tie)
        self._seq += 1
        heapq.heappush(self, (*key, st))
        self.exec_sum += st.remaining

    def take(self) -> Stage:
        stage = heapq.heappop(self)[-1]
        self.exec_sum -= stage.remaining
        return stage


def _make_queue(policy: QueuePolicy):
    if policy.kind is QueueKind.FAIR_SHARE:
        return _FifoQueue()
    if policy.kind.has_deadlines:
        return _KeyedQueue("deadline")
    return _KeyedQueue("remaining" if policy.kind is QueueKind.SHORTEST_FIRST else None)


class InstanceState:
    """One microservice instance: pending queue, in-flight slice, busy time.

    While a slice runs, `current.remaining` is the stage's remaining
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
        self.current: Optional[Stage] = None
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
        return self.queue.exec_sum + current.remaining - (now - self.slice_start)

    # the benchmark's per-layer tracer (bench/tracer.py) wraps this name
    load_view = backlog

    # -- queue operations ----------------------------------------------------

    def enqueue(self, stage: Stage, now: SimTime) -> Optional[SimTime]:
        """Add a stage; if idle, execution begins immediately.

        Returns the slice-end time when a slice was started, else None.
        """
        if stage.target != self.id.ms:
            raise WrongTarget(f"stage targets ms {stage.target}, instance is {self.id}")
        if self.current is None:
            return self._start(stage, now)
        self.queue.push(stage)
        return None

    def _start(self, stage: Stage, now: SimTime) -> SimTime:
        """Run a slice of `stage` from `now`; returns its end time."""
        left = stage.remaining
        self.current = stage
        self.slice_start = now
        self.slice_end = now + (left if left <= self.quantum else self.quantum)
        return self.slice_end

    def finish_slice(self, now: SimTime) -> tuple[Optional[Stage], Optional[SimTime]]:
        """End the running slice at `now`.

        Returns (completed stage or None if requeued, next slice end or None).
        """
        stage = self.current
        assert stage is not None and now == self.slice_end
        ran = now - self.slice_start
        self.busy_accum += ran
        left = stage.remaining - ran
        stage.remaining = left
        queue = self.queue
        if left > 0:
            # fair share: back to the tail and run the head; alone, the stage
            # runs on without touching the queue
            if queue:
                queue.append(stage)
                stage = queue.popleft()
                queue.exec_sum += left - stage.remaining
                self.current = stage
                left = stage.remaining
            self.slice_start = now
            self.slice_end = end = now + (left if left <= self.quantum else self.quantum)
            return None, end
        if queue:
            return stage, self._start(queue.take(), now)
        self.current = None
        return stage, None


# --- early-deadline slack division ------------------------------------------


def assign_deadlines(req: ClientRequest, kind: QueueKind, sla: SimTime) -> None:
    """Divide the `sla` budget over the request's levels for an EDS or EXDS queue.

    Level k holds the stages at depth k, the k-th generation of the tree,
    and has a weight: 1 under EDS, the largest exec_time at that level under
    EXDS (siblings run in parallel). A stage at depth k gets deadline =
    created_at + sla * (weights of levels 0..k) / (all weights), so under
    EDS level k gets (k + 1) / levels of the SLA, and the deepest level
    always gets all of it. Every path is divided by the tree's deepest
    level, not by its own depth.
    """
    if sla <= 0:
        raise ConfigError("sla must be > 0 to assign deadlines")
    levels = []
    level = list(req.root_stages)
    while level:
        levels.append(level)
        level = [child for stage in level for child in stage.children]
    if kind is QueueKind.EXDS:
        weights = [max(stage.exec_time for stage in level) for level in levels]
    else:
        weights = [1] * len(levels)
    total = sum(weights)
    if total <= 0:
        raise ConfigError("total execution time must be > 0 to assign deadlines")
    acc = 0
    for level, weight in zip(levels, weights):
        acc += weight
        deadline = req.created_at + round_half_up(sla * acc / total)
        for stage in level:
            stage.deadline = deadline
