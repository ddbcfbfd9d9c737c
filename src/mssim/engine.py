"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams.

Time is integer microseconds since simulation start. Events fire in
lexicographic (fire_at, seq) order where seq is insertion order, so
simultaneous events are delivered first-scheduled-first.

The streams are PCG64 (O'Neill 2014, XSL-RR 128/64) seeded by numpy's
SeedSequence algorithm, both written out here and equal to numpy's bit for
bit, so that mssim does not import `numpy.random`, which costs a run
about 6 MiB of resident memory.

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
from itertools import accumulate, chain, repeat, starmap
from operator import call as deliver, index
from typing import Any, Callable, Iterator

import numpy as np

from .errors import SchedulingInPast

SimTime = int  # microseconds


def round_half_up(x: float) -> int:
    """Round a real sample to whole microseconds, halves up."""
    return math.floor(x + 0.5)


Handler = Callable[[Any], None]


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

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier M


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix: each call hashes a 32-bit word with the next hash constant."""

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def seed_words(seed: int, key: int) -> list[int]:
    """numpy's `SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)`."""
    if (seed := index(seed)) < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {seed}")
    words = [[n >> i & _M32 for i in range(0, max(n.bit_length(), 1), 32)] for n in (seed, key)]
    entropy = words[0] + [0] * (4 - len(words[0])) + words[1]  # a short seed is padded to 4 words
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


# From state s, with d = s*(M - 1) + inc its first step, the LCG is at
# s + G_k*d after k steps, G_k = 1 + M + ... + M^(k-1), since each step is
# M times the one before. A chunk takes an anchor every _SPAN steps in
# Python ints and the _SPAN states after each by this one shared table of
# G_1.._SPAN in 64-bit limbs (2 KiB)
_SPAN = 64
_G = list(accumulate(repeat(_MULT, _SPAN - 1), lambda g, m: (g * m + 1) & _M128, initial=1))
_GL, _GH = (np.array([g >> i & _M64 for g in _G], np.uint64) for i in (0, 64))
_LOW, _1, _32, _58, _63 = (np.uint64(v) for v in (_M32, 1, 32, 58, 63))
_G0, _G1 = _GL & _LOW, _GL >> _32
_G_SPAN, _A_SPAN = _G[-1], pow(_MULT, _SPAN, _M128 + 1)


def raw_chunks(words: list[int], n: int) -> Iterator[np.ndarray]:
    """numpy's `PCG64` seeded by `words` (see `seed_words`): `random_raw(n)`, call after call."""
    inc = (words[2] << 64 | words[3]) << 1 & _M128 | 1
    state = ((words[0] << 64 | words[1]) + inc) * _MULT + inc & _M128
    rows = -(-n // _SPAN)

    def chunk() -> np.ndarray:
        nonlocal state
        a, d, anchors = state, ((_MULT - 1) * state + inc) & _M128, []
        for _ in range(rows):
            anchors += (a, d)
            a, d = (a + _G_SPAN * d) & _M128, d * _A_SPAN & _M128
        limbs = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in anchors), "<u8")
        al, ah, dl, dh = limbs.reshape(rows, 4, 1).transpose(1, 0, 2)
        # G_j*d mod 2^128, the high word of G_j's low limb times d's by
        # 32-bit halves; in place, so that a chunk holds at most 3 words a draw
        d0, d1 = dl & _LOW, dl >> _32
        hi = _G0 * d0 >> _32
        hi += _G1 * d0
        u = hi & _LOW
        u += _G0 * d1
        hi >>= _32
        hi += u >> _32
        del u
        hi += _G1 * d1
        hi += _GL * dh
        hi += _GH * dl
        hi += ah
        lo = _GL * dl
        lo += al
        hi += lo < al
        hi, lo = hi.ravel()[:n], lo.ravel()[:n]
        state = int(hi[-1]) << 64 | int(lo[-1])
        # XSL-RR: the high word xor the low one, rotated right by the top 6 bits
        lo ^= hi
        hi >>= _58
        x = lo << _1
        lo >>= hi
        hi ^= _63
        x <<= hi
        x |= lo
        return x

    # a generator suspended at its yield would hold its last chunk; this holds none
    return starmap(chunk, repeat(()))


def doubles(u: np.ndarray) -> array:
    """A float64 chunk as an array("d"), 8 bytes per draw; it hands out Python floats."""
    return array("d", u.tobytes())


def _unit_doubles(raw: np.ndarray) -> np.ndarray:
    """The top 53 bits of each raw 64-bit output as a double in [0, 1), exactly."""
    return (raw >> 11) * 2.0**-53


class RngStream:
    """One deterministic stream per `_STREAM_IDS` label and master seed.

    Uniforms in [0, 1) are drawn `chunk` at a time and `transform` turns each
    chunk (an array) into a sequence of draws, by default the uniforms
    themselves in an array("d"). A uniform is the top 53 bits of a raw
    output of `raw_chunks` scaled exactly, so identical (seed, stream_id,
    draw index) yields an identical uniform on every platform, and with an
    elementwise transform the draws do not depend on the chunk size. The raw
    outputs equal those of numpy's PCG64 behind a SeedSequence with the
    label as its spawn key, a raw stream that numpy keeps fixed across
    releases (NEP 19), but no numpy.random code computes them.
    """

    def __init__(
        self,
        seed: int,
        stream_id: str,
        chunk: int = 1024,
        transform: Callable[[np.ndarray], Sequence] = doubles,
    ):
        if chunk < 1:
            raise ValueError(f"a stream draws at least 1 uniform a chunk, got {chunk}")
        raw = raw_chunks(seed_words(seed, _STREAM_IDS[stream_id]), chunk)
        # next() on a chain of sequences is a C call, several times cheaper
        # than a method that indexes a buffer. A typed array holds a draw in
        # 8 B, a list in 32 to 40 B (the pointer and the int or float it
        # points to); both hand out one Python int or float per next()
        chunks = map(transform, map(_unit_doubles, raw))
        self.draw: Callable[[], Any] = chain.from_iterable(chunks).__next__
