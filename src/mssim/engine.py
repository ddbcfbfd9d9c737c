"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams.

Time is integer microseconds since simulation start. Events fire in
lexicographic (fire_at, seq) order where seq is insertion order, so
simultaneous events are delivered first-scheduled-first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable

import numpy as np

from .errors import SchedulingInPast

SimTime = int  # microseconds


def round_half_up(x: float) -> int:
    """Round a real sample to whole microseconds, halves up."""
    return math.floor(x + 0.5)


class EventKind(IntEnum):
    REQUEST_ARRIVAL = 0
    EXECUTION_SLICE_COMPLETE = 1
    UTILIZATION_SAMPLE = 2


@dataclass(slots=True)
class Event:
    fire_at: SimTime
    kind: EventKind
    payload: Any = None


class Engine:
    """Single-threaded event loop. Not shared across threads."""

    def __init__(self) -> None:
        self._now: SimTime = 0
        self._heap: list[tuple[SimTime, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> SimTime:
        return self._now

    def pending(self) -> int:
        return len(self._heap)

    def schedule(self, event: Event) -> None:
        if event.fire_at < self._now:
            raise SchedulingInPast(
                f"event at t={event.fire_at} scheduled when now={self._now}"
            )
        heapq.heappush(self._heap, (event.fire_at, self._seq, event))
        self._seq += 1

    def run_until(self, end: SimTime, dispatch: Callable[[Event], None]) -> SimTime:
        """Process all events with fire_at <= end in order; clock lands on end.

        Events beyond `end` stay queued (see drain). An exhausted queue still
        advances the clock to `end` so utilization denominators cover the
        whole window.
        """
        heap = self._heap
        while heap and heap[0][0] <= end:
            fire_at, _, event = heapq.heappop(heap)
            self._now = fire_at
            dispatch(event)
        if end > self._now:
            self._now = end
        return self._now

    def drain(self, dispatch: Callable[[Event], None]) -> SimTime:
        """Process every remaining event regardless of time; returns the final clock."""
        heap = self._heap
        while heap:
            fire_at, _, event = heapq.heappop(heap)
            self._now = fire_at
            dispatch(event)
        return self._now


# Fixed stream labels so that changing one model never perturbs another's draws.
_STREAM_IDS = {
    "arrival": 0,
    "exec": 1,
    "depth": 2,
    "routing": 3,
    "communication": 4,
}


class RngStream:
    """One deterministic uniform stream per `_STREAM_IDS` label and master seed.

    Identical (seed, stream_id, draw index) yields an identical value on
    every platform (PCG64 behind a per-stream SeedSequence spawn key).
    """

    def __init__(self, seed: int, stream_id: str, chunk: int = 4096):
        key = _STREAM_IDS[stream_id]
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
        )
        self._chunk = chunk
        self._buf = np.empty(0)
        self._pos = 0

    def uniform(self) -> float:
        """Next value in [0, 1). Buffered; the sequence is chunk-size independent."""
        if self._pos >= self._buf.shape[0]:
            self._buf = self._gen.random(self._chunk)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


def make_streams(seed: int) -> dict[str, RngStream]:
    """The five stochastic-component streams used by workload generation."""
    return {name: RngStream(seed, name) for name in _STREAM_IDS}
