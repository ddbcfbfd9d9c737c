"""Microservice instance runtime: queue policies, execution, deadlines.

An instance executes at most one stage slice at a time and is work
conserving: it never idles while its queue is non-empty. Non-fair-share
policies run a stage to completion in one slice; fair share runs
min(remaining, quantum) and re-appends unfinished stages at the tail.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from .engine import SimTime, round_half_up
from .errors import ConfigError, WrongTarget
from .gateway import InstanceLoadView
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


class _FifoQueue:
    """Arrival-order queue; fair-share requeues append at the tail."""

    def __init__(self) -> None:
        self._q: deque[QueuedStage] = deque()
        self.exec_sum: SimTime = 0

    def __len__(self) -> int:
        return len(self._q)

    def push(self, item: QueuedStage) -> None:
        self._q.append(item)
        self.exec_sum += item.stage.remaining

    def pop(self) -> QueuedStage:
        item = self._q.popleft()
        self.exec_sum -= item.stage.remaining
        return item


class _KeyedQueue:
    """Priority queue over a policy key; ties by (arrival, request_id, seq)."""

    def __init__(self, primary: Optional[str]):
        # primary: None (pure fcfs), "remaining", or "deadline"
        self._primary = primary
        self._heap: list[tuple] = []
        self._seq = 0
        self.exec_sum: SimTime = 0

    def __len__(self) -> int:
        return len(self._heap)

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
        heapq.heappush(self._heap, (*key, item))
        self.exec_sum += st.remaining

    def pop(self) -> QueuedStage:
        item = heapq.heappop(self._heap)[-1]
        self.exec_sum -= item.stage.remaining
        return item


def _make_queue(policy: QueuePolicy):
    if policy.kind is QueueKind.FAIR_SHARE:
        return _FifoQueue()
    if policy.kind.has_deadlines:
        return _KeyedQueue("deadline")
    return _KeyedQueue("remaining" if policy.kind is QueueKind.SHORTEST_FIRST else None)


class InstanceState:
    """One microservice instance: pending queue, in-flight slice, busy time."""

    __slots__ = (
        "id",
        "policy",
        "queue",
        "current",
        "slice_start",
        "slice_end",
        "current_total_left",
        "busy_accum",
    )

    def __init__(self, instance_id: InstanceId, policy: QueuePolicy):
        self.id = instance_id
        self.policy = policy
        self.queue = _make_queue(policy)
        self.current: Optional[QueuedStage] = None
        self.slice_start: SimTime = 0
        self.slice_end: SimTime = 0
        self.current_total_left: SimTime = 0
        self.busy_accum: SimTime = 0

    # -- load accounting ---------------------------------------------------

    def busy_time_until(self, now: SimTime) -> SimTime:
        """Cumulative executing time, including progress of the running slice."""
        busy = self.busy_accum
        if self.current is not None:
            busy += now - self.slice_start
        return busy

    def load_view(self, now: SimTime) -> InstanceLoadView:
        current_remaining = 0
        if self.current is not None:
            current_remaining = self.current_total_left - (now - self.slice_start)
        return InstanceLoadView(
            instance=self.id,
            queued_count=len(self.queue),
            queued_exec_sum=self.queue.exec_sum,
            current_remaining=current_remaining,
        )

    # -- queue operations ----------------------------------------------------

    def enqueue(self, item: QueuedStage, now: SimTime) -> Optional[SimTime]:
        """Add a stage; if idle, execution begins immediately.

        Returns the slice-end time when a slice was started, else None.
        """
        if item.stage.target != self.id.ms:
            raise WrongTarget(
                f"stage targets ms {item.stage.target}, instance is {self.id}"
            )
        self.queue.push(item)
        if self.current is None:
            return self.start_next(now)
        return None

    def start_next(self, now: SimTime) -> Optional[SimTime]:
        """Pick per policy and start a slice; returns its end time, or None."""
        if self.current is not None or len(self.queue) == 0:
            return None
        item = self.queue.pop()
        stage = item.stage
        if self.policy.kind is QueueKind.FAIR_SHARE:
            slice_len = min(stage.remaining, self.policy.quantum)
        else:
            slice_len = stage.remaining
        self.current = item
        self.current_total_left = stage.remaining
        self.slice_start = now
        self.slice_end = now + slice_len
        return self.slice_end

    def finish_slice(
        self, now: SimTime
    ) -> tuple[Optional[QueuedStage], Optional[SimTime]]:
        """End the running slice at `now`.

        Returns (completed item or None if requeued, next slice end or None).
        """
        item = self.current
        assert item is not None and now == self.slice_end
        slice_len = now - self.slice_start
        self.busy_accum += slice_len
        item.stage.remaining -= slice_len
        self.current = None
        completed = None
        if item.stage.remaining > 0:
            self.queue.push(item)  # fair share: back to the tail
        else:
            completed = item
        next_end = self.start_next(now)
        return completed, next_end


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
