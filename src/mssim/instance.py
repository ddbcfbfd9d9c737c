"""Microservice instance runtime: queue policies, execution, deadlines.

An instance executes at most one stage slice at a time and is work
conserving: it never idles while its queue is non-empty. Non-fair-share
policies run a stage to completion in one slice; fair share runs
min(remaining, quantum) and re-appends unfinished stages at the tail
(`FairShareState`, whose quantum boundaries are not events).

Instances are state machines: they return the time of the running
stage's completion and schedule nothing. The simulation puts each
completion in the event queue, and moves it when a fair-share join
returns a new time.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import Optional

from .engine import SimTime, round_half_up
from .errors import ConfigError
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


# each run-to-completion policy's queue order; fair share has a turn order instead
_QUEUE_ORDER = {
    QueueKind.FCFS: attrgetter("arrival", "request_id"),
    QueueKind.SHORTEST_FIRST: attrgetter("remaining", "arrival", "request_id"),
    QueueKind.EDS: attrgetter("deadline", "arrival", "request_id"),
    QueueKind.EXDS: attrgetter("deadline", "arrival", "request_id"),
}


class _KeyedQueue(list):
    """Priority queue (a heap) of (*key(stage), seq, stage): a policy's order, then push order."""

    __slots__ = ("_key", "_seq")

    def __init__(self, key: attrgetter):
        super().__init__()
        self._key = key
        self._seq = 0

    def push(self, st: Stage) -> None:
        heapq.heappush(self, (*self._key(st), self._seq, st))
        self._seq += 1

    def popleft(self) -> Stage:
        """The next stage in policy order, as a fair-share instance's deque gives it."""
        return heapq.heappop(self)[-1]


class InstanceState:
    """One microservice instance: pending queue, in-flight slice, busy time.

    While a slice runs, `current.remaining` is the stage's remaining
    exec at the slice start, and `owed` is that of `current` and the
    queued stages together, so `backlog` is linear in `now` until the
    next enqueue or completion. The slice that ends in the next
    completion starts at `parent`: `slice_start`, when a stage runs to
    completion. `pending` is the event of the running stage's
    completion, which the simulation keeps here.
    """

    __slots__ = (
        "id", "queue", "current", "pending",
        "slice_start", "slice_end", "parent", "busy_accum", "owed",
    )

    def __init__(self, instance_id: InstanceId, policy: QueuePolicy):
        if policy.kind is QueueKind.FAIR_SHARE:
            raise ConfigError("a fair-share instance is a FairShareState")
        self.id = instance_id
        self.queue = _KeyedQueue(_QUEUE_ORDER[policy.kind])
        self.current: Optional[Stage] = None
        self.slice_start = self.slice_end = self.busy_accum = self.owed = self.parent = 0
        self.pending: Optional[tuple] = None

    # -- load accounting ---------------------------------------------------

    def busy_time_until(self, now: SimTime) -> SimTime:
        """Cumulative executing time, including progress of the running slice."""
        return self.busy_accum + (0 if self.current is None else now - self.slice_start)

    def backlog(self, now: SimTime) -> SimTime:
        """Exec still owed at `now`: queued stages plus the rest of the running one."""
        return 0 if self.current is None else self.owed - (now - self.slice_start)

    # the benchmark's per-layer tracer (bench/tracer.py) wraps this name
    load_view = backlog

    # -- queue operations ----------------------------------------------------

    def enqueue(self, stage: Stage, now: SimTime) -> Optional[SimTime]:
        """Add a stage; if idle, execution begins immediately.

        Returns the running stage's completion time when it is new (a
        start, or a fair-share join that moves it), else None.
        """
        self.owed += stage.remaining
        if self.current is None:
            return self._start(stage, now)
        return self._wait(stage, now)

    def _wait(self, stage: Stage, now: SimTime) -> Optional[SimTime]:
        """Queue `stage` behind the running one; the completion does not move."""
        self.queue.push(stage)
        return None

    def _start(self, stage: Stage, now: SimTime) -> Optional[SimTime]:
        """Run `stage` from `now` to completion; returns its end time."""
        self.current = stage
        self.slice_start = self.parent = now
        self.slice_end = end = now + stage.remaining
        return end

    def finish_slice(self, now: SimTime) -> tuple[Optional[Stage], Optional[SimTime]]:
        """Complete the running stage at `now`.

        Returns (the completed stage, next slice end to schedule or None).
        """
        if self.parent != self.slice_start:
            # bring a fair-share instance to the start of the completing slice
            self._skip((self.parent - self.slice_start) // self.quantum)
        stage = self.current
        assert stage is not None and now == self.slice_end
        done = now - self.slice_start
        self.busy_accum += done
        self.owed -= done
        stage.remaining = 0
        queue = self.queue
        if queue:
            return stage, self._start(queue.popleft(), now)
        self.current = None
        return stage, None


class FairShareState(InstanceState):
    """A fair-share instance whose only events are its completions.

    Between two enqueues or completions on one instance, round robin with a
    quantum is a closed-form function of the turn order and the remaining
    execs, so the quantum boundaries are not events. The instance computes
    its first completion, and brings `current` and `queue` up to date,
    whole boundaries at a time, only when a stage joins or completes, so
    that `backlog` and `busy_time_until` read as with one event per
    boundary. Each stage's `remaining` is its exec left at `slice_start`.
    The base class's `enqueue` and `finish_slice` do the bookkeeping; this
    class supplies the hooks they call.

    Like every instance, it returns completion times and schedules none:
    `enqueue` returns the new time when a join moves the completion, and
    the simulation moves the queued event. Where a boundary and a
    completion fall among the other events of their instant is the
    engine's same-instant order (`mssim.engine`): a join at t sees the
    boundaries before t only, and the completion keeps the seq of the
    chain it ends. A chain is the run of slices from one start of the
    instance, onto an idle instance or after a completion, to its next
    completion.
    """

    __slots__ = ("quantum",)

    def __init__(self, instance_id: InstanceId, policy: QueuePolicy):
        self.id = instance_id
        self.queue: deque[Stage] = deque()  # the stages behind `current`, in turn order
        self.current = self.pending = None
        self.slice_start = self.slice_end = self.busy_accum = self.owed = self.parent = 0
        self.quantum = policy.quantum

    def _start(self, stage: Stage, now: SimTime) -> SimTime:
        """Make `stage` current from `now`, the start of a chain; returns the chain's completion."""
        self.current = stage
        self.slice_start = now
        return self._first()

    def _first(self) -> SimTime:
        """Set `parent` and `slice_end` to the first finisher's last slice, from `slice_start` on.

        A stage finishes in its last slice, after `full` whole quanta; the
        fewest wins, and the earliest in turn order among equals. Returns
        `slice_end`.
        """
        q = self.quantum
        left = self.current.remaining
        full = (left - 1) // q
        pos = 0
        if full:
            for j, stage in enumerate(self.queue, 1):
                if stage.remaining <= full * q:  # fewer whole quanta
                    left, pos = stage.remaining, j
                    full = (left - 1) // q
                    if not full:
                        break
        self.parent = self.slice_start + (full * (len(self.queue) + 1) + pos) * q
        self.slice_end = end = self.parent + left - full * q
        return end

    def _wait(self, stage: Stage, now: SimTime) -> Optional[SimTime]:
        """Queue `stage` at the tail of the turn order as of `now`.

        Returns the completion time when the newcomer moves it, else None.
        """
        queue = self.queue
        q = self.quantum
        parent = self.parent
        if now > self.slice_start:
            # the boundaries before now, up to the completing slice's start;
            # one at now takes effect after this event
            self._skip((min(now - 1, parent) - self.slice_start) // q)
        queue.append(stage)
        # unless the first finisher ends within this round, the newcomer
        # takes a turn before it does
        if parent - self.slice_start >= len(queue) * q:
            return self._first()
        return None

    def _skip(self, boundaries: int) -> None:
        """Apply the next `boundaries` quantum boundaries: charge and rotate.

        Of n stages in turn order, each runs `boundaries // n` whole quanta
        of them, and the first `boundaries % n` one more.
        """
        if not boundaries:
            return
        q = self.quantum
        charge = boundaries * q
        self.owed -= charge
        self.busy_accum += charge
        self.slice_start += charge
        queue = self.queue
        if not queue:
            self.current.remaining -= charge
            return
        queue.appendleft(self.current)
        rounds, turns = divmod(boundaries, len(queue))
        if rounds:
            whole = rounds * q
            for stage in queue:
                stage.remaining -= whole
        for stage in islice(queue, turns):
            stage.remaining -= q
        queue.rotate(-turns)
        self.current = queue.popleft()


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
    longest = [max(stage.exec_time for stage in level) for level in levels]
    for level, deadline in zip(levels, level_deadlines(req.created_at, sla, longest, kind)):
        for stage in level:
            stage.deadline = deadline


def level_deadlines(
    created_at: SimTime, sla: SimTime, longest: list[SimTime], kind: QueueKind
) -> list[SimTime]:
    """Per level, created_at + sla * (weights of it and the levels above) / (all weights).

    `longest` holds each level's largest exec_time, the level's weight
    under EXDS; under EDS every level weighs 1. `sla * acc` is an exact
    int and `/` rounds the quotient once, so a deadline does not depend on
    whether the product fits a double.
    """
    weights = longest if kind is QueueKind.EXDS else [1] * len(longest)
    total = sum(weights)
    if total <= 0:
        raise ConfigError("total execution time must be > 0 to assign deadlines")
    acc = 0
    deadlines = []
    for weight in weights:  # a loop: a comprehension costs twice as much on one level
        acc += weight
        deadlines.append(created_at + round_half_up(sla * acc / total))
    return deadlines
