"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams.

Time is integer microseconds since simulation start. Events fire in
lexicographic (fire_at, seq) order where seq is insertion order, so
simultaneous events are delivered first-scheduled-first.

A fair-share instance puts only its completions in the queue, as entries
of its own (`Engine.push`, `Engine.replace`). The first quantum boundary
of each run of them still takes a seq, as if scheduled (`Engine.reserve`).
A completion that a later, skipped boundary would have scheduled has the
instance itself in place of an int seq (`instance.FairShareState`), and
comparing it needs the events fired so far, which the engine then keeps
in an `EventLog`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from typing import Any, Callable, Optional

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import SchedulingInPast

SimTime = int  # microseconds


def round_half_up(x: float) -> int:
    """Round a real sample to whole microseconds, halves up."""
    return math.floor(x + 0.5)


Handler = Callable[[Any], None]

try:
    from operator import call as deliver  # Python >= 3.11
except ImportError:  # pragma: no cover

    def deliver(handler: Handler, payload: Any) -> None:
        """Fire one event: call handler(payload)."""
        handler(payload)


class EventLog(list):
    """The events fired so far, in firing order: (time, seq key, seqs handed
    out before it fired, that is `Engine._seq` at its pop).

    `cut()` names the latest time that no live fair-share chain can still
    ask about; every `limit` events the entries up to it are dropped.
    """

    __slots__ = ("cut", "limit")

    def __init__(self, cut: Callable[[], SimTime], limit: int = 1024):
        super().__init__()
        self.cut = cut
        self.limit = limit

    def trim(self) -> None:
        # the event firing now stays, whatever the cut
        del self[:bisect_left(self, (min(self.cut(), self[-1][0] - 1) + 1,))]


class Engine:
    """Single-threaded event loop. Not shared across threads.

    An event is a heap entry (fire_at, seq, handler, payload). Firing it sets
    `now` to fire_at and calls handler(payload).
    """

    __slots__ = ("now", "_heap", "_seq", "log")

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._heap: list[tuple[SimTime, Any, Handler, Any]] = []
        self._seq = 0
        # kept only while fair-share instances run (see the module docstring)
        self.log: Optional[EventLog] = None

    def pending(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: SimTime, handler: Handler, payload: Any = None) -> None:
        if fire_at < self.now:
            raise SchedulingInPast(f"event at t={fire_at} scheduled when now={self.now}")
        heappush(self._heap, (fire_at, self._seq, handler, payload))
        self._seq += 1

    def reserve(self) -> int:
        """The seq of an event that is scheduled but never put in the heap."""
        seq = self._seq
        self._seq += 1
        return seq

    def push(self, entry: tuple) -> None:
        """Put a heap entry (fire_at, key, handler, payload) with a key of the caller's."""
        heappush(self._heap, entry)

    def replace(self, old: tuple, new: tuple) -> None:
        """Put heap entry `new` in place of `old`, an entry in the heap."""
        heap = self._heap
        heap[heap.index(old)] = new
        heapify(heap)

    # run_until and drain fire each event as fire(handler, payload); a caller
    # that passes `deliver` explicitly lets a profiler wrap it (bench/tracer.py
    # times every event this way)

    def run_until(self, end: SimTime, fire: Callable[[Handler, Any], None] = deliver) -> SimTime:
        """Fire all events with fire_at <= end in order; clock lands on end.

        Events beyond `end` stay queued (see drain). An exhausted queue still
        advances the clock to `end` so utilization denominators cover the
        whole window.
        """
        self._fire(end, fire)
        if end > self.now:
            self.now = end
        return self.now

    def drain(self, fire: Callable[[Handler, Any], None] = deliver) -> SimTime:
        """Fire every remaining event regardless of time; returns the final clock."""
        self._fire(math.inf, fire)
        return self.now

    def _fire(self, end: float, fire: Callable[[Handler, Any], None]) -> None:
        heap, log = self._heap, self.log
        if log is None:
            while heap and heap[0][0] <= end:
                self.now, _, handler, payload = heappop(heap)
                fire(handler, payload)
            return
        while heap and heap[0][0] <= end:
            self.now, seq, handler, payload = heappop(heap)
            log.append((self.now, seq, self._seq))
            if len(log) > log.limit:
                log.trim()
            fire(handler, payload)


# Fixed stream labels so that changing one model never perturbs another's draws.
_STREAM_IDS = {
    "arrival": 0,
    "exec": 1,
    "depth": 2,
    "routing": 3,
    "communication": 4,
}


class RngStream:
    """One deterministic stream per `_STREAM_IDS` label and master seed.

    Uniforms in [0, 1) are drawn `chunk` at a time and `transform` turns each
    chunk (an array) into a list of draws, by default the uniforms themselves
    as Python floats. Identical (seed, stream_id, draw index) yields an
    identical uniform on every platform (PCG64 behind a per-stream
    SeedSequence spawn key), so with an elementwise transform the draws do
    not depend on the chunk size.
    """

    def __init__(
        self,
        seed: int,
        stream_id: str,
        chunk: int = 1024,
        transform: Callable[[np.ndarray], list] = np.ndarray.tolist,
    ):
        gen = Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(_STREAM_IDS[stream_id],))))
        # next() on a chain of lists is a C call, several times cheaper than a
        # method that indexes a buffer; a list costs 32 B per draw against an
        # array's 8 B, so a 1,024-draw chunk takes what a 4,096-draw array did
        chunks = map(transform, map(gen.random, repeat(chunk)))
        self.draw: Callable[[], Any] = chain.from_iterable(chunks).__next__
