"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams.

Time is integer microseconds since simulation start. Events fire in
lexicographic (fire_at, seq) order where seq is insertion order, so
simultaneous events are delivered first-scheduled-first.

Instances schedule nothing: they return completion times, and the
simulation alone puts events in the queue. Only this module knows the
layout of a heap entry.

Same-instant order. A fair-share instance fires no event at its quantum
boundaries (`instance.FairShareState`); two rules fix where boundaries and
completions fall among the events of one instant, under every policy:

1. A quantum boundary at t takes effect after every event at t, so an
   event at t sees an instance as it was after its boundaries before t.
2. A completion is an ordinary (fire_at, seq) entry whose seq is taken
   when its instance starts the chain of slices that ends in it: on an
   idle instance at the dispatch, and after a completion once the
   finished stage's children are dispatched and its request is recorded.
   A stage that joins later can move its time (`Engine.move`) but not
   its seq.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from typing import Any, Callable

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


class Engine:
    """Single-threaded event loop. Not shared across threads.

    An event is a heap entry (fire_at, seq, handler, payload). Firing it sets
    `now` to fire_at and calls handler(payload).
    """

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._heap: list[tuple[SimTime, int, Handler, Any]] = []
        self._seq = 0

    def pending(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: SimTime, handler: Handler, payload: Any = None) -> tuple:
        """Queue handler(payload) at `fire_at`; returns its heap entry (see `move`)."""
        if fire_at < self.now:
            raise SchedulingInPast(f"event at t={fire_at} scheduled when now={self.now}")
        entry = (fire_at, self._seq, handler, payload)
        heappush(self._heap, entry)
        self._seq += 1
        return entry

    def move(self, entry: tuple, fire_at: SimTime) -> tuple:
        """Re-time heap `entry` to `fire_at`, keeping its seq, handler and payload; returns it."""
        if fire_at < self.now:
            raise SchedulingInPast(f"event moved to t={fire_at} when now={self.now}")
        heap = self._heap
        moved = (fire_at, *entry[1:])
        heap[heap.index(entry)] = moved
        heapify(heap)
        return moved

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
        heap = self._heap
        while heap and heap[0][0] <= end:
            self.now, _, handler, payload = heappop(heap)
            fire(handler, payload)


# Fixed stream labels so that changing one model never perturbs another's draws.
_STREAM_IDS = {
    "arrival": 0,
    "exec": 1,
    "depth": 2,
    "routing": 3,
    "communication": 4,
}


def doubles(u: np.ndarray) -> array:
    """A float64 chunk as an array("d"), 8 bytes per draw; it hands out Python floats."""
    return array("d", u.tobytes())


class RngStream:
    """One deterministic stream per `_STREAM_IDS` label and master seed.

    Uniforms in [0, 1) are drawn `chunk` at a time and `transform` turns each
    chunk (an array) into a sequence of draws, by default the uniforms
    themselves in an array("d"). Identical (seed, stream_id, draw index)
    yields an identical uniform on every platform (PCG64 behind a per-stream
    SeedSequence spawn key), so with an elementwise transform the draws do
    not depend on the chunk size.
    """

    def __init__(
        self,
        seed: int,
        stream_id: str,
        chunk: int = 1024,
        transform: Callable[[np.ndarray], Sequence] = doubles,
    ):
        gen = Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(_STREAM_IDS[stream_id],))))
        # next() on a chain of sequences is a C call, several times cheaper
        # than a method that indexes a buffer. A typed array holds a draw in
        # 8 B, a list in 32 to 40 B (the pointer and the int or float it
        # points to); both hand out one Python int or float per next()
        chunks = map(transform, map(gen.random, repeat(chunk)))
        self.draw: Callable[[], Any] = chain.from_iterable(chunks).__next__
