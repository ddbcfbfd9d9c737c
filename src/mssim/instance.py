"""Microservice instance runtime: queue policies, execution, deadlines.

An instance executes at most one stage slice at a time and is work
conserving: it never idles while its queue is non-empty. Non-fair-share
policies run a stage to completion in one slice; fair share runs
min(remaining, quantum) and re-appends unfinished stages at the tail
(`FairShareState`, which schedules only the completions).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Any, Callable, Optional

from .engine import Engine, EventLog, SimTime, round_half_up
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
        raise ConfigError("a fair-share instance is a FairShareState")
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
        "queue",
        "current",
        "slice_start",
        "slice_end",
        "busy_accum",
    )

    def __init__(self, instance_id: InstanceId, policy: QueuePolicy):
        self.id = instance_id
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

    def _start(self, stage: Stage, now: SimTime) -> Optional[SimTime]:
        """Run `stage` from `now` to completion; returns its end time."""
        self.current = stage
        self.slice_start = now
        self.slice_end = end = now + stage.remaining
        return end

    def finish_slice(self, now: SimTime) -> tuple[Optional[Stage], Optional[SimTime]]:
        """Complete the running stage at `now`.

        Returns (the completed stage, next slice end to schedule or None).
        """
        stage = self.current
        assert stage is not None and now == self.slice_end
        self.busy_accum += now - self.slice_start
        stage.remaining = 0
        queue = self.queue
        if queue:
            return stage, self._start(queue.take(), now)
        self.current = None
        return stage, None


class FairShare:
    """What the fair-share instances of one run share.

    The engine, whose event log they read; `finish(state)`, which completes
    the running stage of a settled instance (`InstanceState.finish_slice`
    and what follows from it); and the live chains (see `FairShareState`)
    by grid. Chains of one grid have boundaries at the same instants, and
    they keep the order of their boundaries at every one of them (a
    boundary follows its predecessor's order), so `lock`, a number per
    chain, holds that order.
    """

    def __init__(self, engine: Engine, finish: Callable[[Any], None]):
        self.engine = engine
        self.finish = finish
        # grid -> its live chains with boundaries, in lock order
        self.aligned: dict[SimTime, list[FairShareState]] = {}
        engine.log = EventLog(self.cut)

    def place(self, state: "FairShareState", now: SimTime, peers: list) -> None:
        """Add the chain that `state` starts at `now` to its grid's `peers`; sets its `lock`."""
        state.peers = peers
        pos = 0
        for i, peer in enumerate(peers):
            # a peer started at this instant, or whose boundary here fired
            # before the event firing now, passes this instant first
            if peer.anchor_t == now or (now < peer.slice_end and peer._fired(now) is not None):
                pos = i + 1
        if pos == len(peers):
            state.lock = peers[-1].lock + 1
        elif pos == 0:
            state.lock = peers[0].lock - 1
        else:
            # rare enough that its import stays out of every run's set-up
            from fractions import Fraction

            state.lock = Fraction(peers[pos - 1].lock + peers[pos].lock, 2)
        peers.insert(pos, state)

    def cut(self) -> SimTime:
        """The latest time no live chain can still ask the event log about."""
        last = self.engine.log[-1][0]
        # a chain without boundaries completes with its reserved seq, unasked
        chains = (s for peers in self.aligned.values() for s in peers)
        return min((s.trim_point(last) for s in chains), default=last)


class _Rotation(deque):
    """The stages waiting behind a fair-share instance's `current`, in turn order.

    `push`, which `InstanceState.enqueue` calls, is the instance's `join`.
    """

    __slots__ = ("push",)

    take = deque.popleft


class FairShareState(InstanceState):
    """A fair-share instance that puts only its completions in the event queue.

    Between two enqueues or completions on one instance, round robin with a
    quantum is a closed-form function of the turn order and the remaining
    execs, so the quantum boundaries are not events. The instance schedules
    its first completion, and brings `current` and `queue` up to date,
    whole boundaries at a time, only when a stage joins or completes. Each
    stage's `remaining` is its exec left at `slice_start`. `owed`, all of
    them together, makes `backlog` linear in `now` in between, so that it
    and `busy_time_until` read as with one event per boundary.

    A chain is the run of boundaries from one start of the instance (onto
    an idle instance, or after a completion) to its next completion, at
    `anchor_t + k * quantum`. The per-quantum engine scheduled the first
    one at the start, with the seq `anchor_seq` (reserved here), and each
    later one when the one before fired. So a boundary fires before a real
    event of its instant iff its predecessor fired before that event was
    scheduled, which `_fired` reads from the engine's event log.

    A completion that a skipped boundary, `parent`, would have scheduled has
    the instance itself as its heap key. Against an int seq s it is earlier
    iff that boundary fired before s was handed out; against another
    instance, iff its boundary fired first, which is by time and then by
    the chains' `lock`. When the completion fires, its log entry gets the
    same order as a tuple (see `_fired`).
    """

    __slots__ = (
        "quantum",
        "run",
        "fire",
        "owed",
        "anchor_t",
        "anchor_seq",
        "lock",
        "peers",
        "parent",
        "pending",
        "memo_g",
        "memo_fired",
    )

    def __init__(self, instance_id: InstanceId, policy: QueuePolicy, run: FairShare):
        self.id = instance_id
        self.queue = _Rotation()
        self.queue.push = self.join
        self.current = None
        self.slice_start = self.slice_end = self.busy_accum = self.owed = 0
        self.quantum = policy.quantum
        self.run = run
        self.fire = self.complete  # the handler of its completion events
        # the heap entry of the next completion, None while idle or re-arming
        self.pending: Optional[tuple] = None
        # the slice of that completion starts at `parent`, a boundary or the anchor
        self.parent: SimTime = 0
        self.anchor_t: SimTime = 0
        self.anchor_seq = -1
        self.lock: Any = 0
        self.peers: list[FairShareState] = []  # the live chains of its grid
        # _fired of the boundary at memo_g, which no later question goes below
        self.memo_g: SimTime = 0
        self.memo_fired: Optional[int] = None

    def backlog(self, now: SimTime) -> SimTime:
        return 0 if self.current is None else self.owed - (now - self.slice_start)

    load_view = backlog

    # the order of its completion's heap key (see the class docstring)

    def __lt__(self, other: Any) -> bool:
        if type(other) is int:
            fired = self._fired(self.parent)
            return fired is not None and fired <= other
        return (self.parent, self.lock) < (other.parent, other.lock)

    def __gt__(self, other: Any) -> bool:  # reflected from int < state, never equal
        return not self < other if type(other) is int else NotImplemented

    def _start(self, stage: Stage, now: SimTime) -> None:
        """Make `stage` current from `now`, the start of a chain.

        A start onto an idle instance is armed at once; one after a
        completion, of the stage at turn 0, is armed by `complete` once
        the completed stage's children are dispatched, where the
        per-quantum engine scheduled that slice.
        """
        idle = self.current is None
        self.current = stage
        self.slice_start = now
        if idle:
            self.owed = stage.remaining
            self.arm()

    def arm(self) -> None:
        """Start a chain now: reserve its first boundary's seq, schedule its first completion."""
        run = self.run
        engine = run.engine
        now = engine.now
        self.anchor_t = self.memo_g = now
        self.anchor_seq = key = engine.reserve()
        self._first()
        if self.parent != now:
            # a chain with boundaries keeps its place among those of its grid
            self.memo_fired = None
            grid = now % self.quantum
            peers = run.aligned.get(grid)
            if peers is None:
                self.peers = run.aligned[grid] = [self]
                self.lock = 0
            else:
                run.place(self, now, peers)
            key = self
        # else it ends in its first slice, and no join moves that
        self.pending = entry = (self.slice_end, key, self.fire, None)
        engine.push(entry)

    def _first(self) -> None:
        """Set `parent` and `slice_end` to the first finisher's last slice, from `slice_start` on.

        A stage finishes in its last slice, after `full` whole quanta; the
        fewest wins, and the earliest in turn order among equals.
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
        self.slice_end = self.parent + left - full * q

    def join(self, stage: Stage) -> None:
        """Queue `stage` at the tail of the turn order as of now."""
        queue = self.queue
        self.owed += stage.remaining
        if self.pending is None:  # between a completion and the re-arm
            queue.append(stage)
            return
        q = self.quantum
        parent = self.parent
        now = self.run.engine.now
        if now > parent:
            skipped = (parent - self.slice_start) // q
        else:
            skipped, into = divmod(now - self.slice_start, q)
            if skipped and not into and self._fired(now) is None:
                skipped -= 1  # the boundary of this instant comes after this event
        self._skip(skipped)
        queue.append(stage)
        # unless the first finisher ends within this round, the newcomer
        # takes a turn before it does
        if parent - self.slice_start >= len(queue) * q:
            self._first()
            entry = (self.slice_end, self, self.fire, None)
            self.run.engine.replace(self.pending, entry)
            self.pending = entry

    def complete(self, _: None) -> None:
        """The event of the chain's completion: settle, finish the stage, start the next chain."""
        parent = self.parent
        if parent != self.anchor_t:
            # the log entry of this completion gets its key as a tuple
            log = self.run.engine.log
            if parent == self.memo_g:  # the log may no longer hold that instant
                fired = self.memo_fired
            else:
                # the first entry at or after `parent`, less than a quantum ago
                i = len(log) - 1
                while i and log[i - 1][0] >= parent:
                    i -= 1
                fired = log[i][2] if log[i][0] != parent else self._fired(parent)
            now, _, before = log[-1]
            log[-1] = (now, (fired - 0.5, parent, self.lock), before)
            peers = self.peers
            if len(peers) == 1:
                del self.run.aligned[self.anchor_t % self.quantum]
            else:
                peers.remove(self)
            # bring the instance to the start of the completing slice
            self._skip((parent - self.slice_start) // self.quantum)
        self.pending = None
        self.owed -= self.slice_end - self.slice_start
        self.run.finish(self)
        if self.current is not None:
            self.arm()

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

    def trim_point(self, last: SimTime) -> SimTime:
        """Answer for the latest boundary before `last` once; nothing below it is asked again."""
        q = self.quantum
        g = self.anchor_t + (min(last - 1, self.parent) - self.anchor_t) // q * q
        if g > self.memo_g:
            self._fired(g)
        return self.memo_g

    def _fired(self, g: SimTime) -> Optional[int]:
        """Seqs handed out before this chain's boundary at `g` fired, None if it has not yet.

        A boundary with no logged event at its instant fired before the
        first event after it. One with events at its instant is placed
        among them by its own key: the reserved seq for the first boundary,
        else (seqs before its predecessor fired - 1/2, the predecessor's
        time, lock); a logged key is an int seq or such a tuple. So the
        walk goes back one quantum per instant that holds events.
        """
        log = self.run.engine.log
        q = self.quantum
        points = []
        t = g
        fired = self.memo_fired
        while t > self.memo_g:
            lo = bisect_left(log, (t,))
            hi = bisect_left(log, (t + 1,), lo)
            points.append((t, lo, hi))
            if lo == hi:
                break
            t -= q
        for t, lo, hi in reversed(points):
            i = lo
            if lo < hi:
                if t - q == self.anchor_t:
                    mine: tuple = (self.anchor_seq,)
                else:
                    mine = (fired - 0.5, t - q, self.lock)
                while i < hi:
                    key = log[i][1]
                    if mine < (key if type(key) is tuple else (key,)):
                        break
                    i += 1
            fired = log[i][2] if i < len(log) else None
        if g < log[-1][0]:
            self.memo_g, self.memo_fired = g, fired
        return fired


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
    for level, deadline in zip(levels, level_deadlines(req.created_at, sla, weights)):
        for stage in level:
            stage.deadline = deadline


def level_deadlines(created_at: SimTime, sla: SimTime, weights: list[int]) -> list[SimTime]:
    """Per level, created_at + sla * (weights of it and the levels above) / (all weights).

    `sla * acc` is an exact int and `/` rounds the quotient once, so a
    deadline does not depend on whether the product fits a double.
    """
    total = sum(weights)
    if total <= 0:
        raise ConfigError("total execution time must be > 0 to assign deadlines")
    acc = 0
    deadlines = []
    for weight in weights:  # a loop: a comprehension costs twice as much on one level
        acc += weight
        deadlines.append(created_at + round_half_up(sla * acc / total))
    return deadlines
