"""The per-quantum fair-share engine that `mssim.instance.FairShareState` replaced.

Every quantum boundary is an event: the instance ends the running slice,
sends an unfinished stage to the tail of its queue and schedules the next
slice end. The events fire in the declared same-instant order (the
`mssim.engine` docstring), applied here with keys of the oracle's own, in
an event loop of its own:

1. A boundary's key sorts after every other event of its instant.
2. A completion's key has the seq that its instance took when the chain of
   slices that ends in it started, onto an idle instance or after the
   completion before.

`test_quantum_oracle.py` holds the event-per-completion engine to it, byte
for byte. It shares the metrics with `mssim`, and nothing of the load
balancers, the fair-share instance or the engine's event queue.
"""

import math
from collections import deque
from heapq import heappop, heappush
from itertools import count, cycle
from typing import Optional

from mssim.engine import deliver
from mssim.gateway import LbPolicy
from mssim.model import InstanceId, Stage
from mssim.simulation import Simulation

EVENT, BOUNDARY = 0, 1


class QuantumEngine:
    """An event loop over keys (time, EVENT or BOUNDARY, seq)."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list = []
        self._seqs = count()

    def seq(self) -> int:
        return next(self._seqs)

    def pending(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at, handler, payload=None, key=None) -> None:
        """Queue handler(payload) at `fire_at` under `key`, by default (EVENT, a fresh seq)."""
        assert fire_at >= self.now
        heappush(self._heap, (fire_at, key or (EVENT, self.seq()), handler, payload))

    def run_until(self, end, fire=deliver) -> int:
        self._fire(end, fire)
        self.now = max(self.now, end)
        return self.now

    def drain(self, fire=deliver) -> int:
        self._fire(math.inf, fire)
        return self.now

    def _fire(self, end, fire) -> None:
        while self._heap and self._heap[0][0] <= end:
            self.now, _, handler, payload = heappop(self._heap)
            fire(handler, payload)


class QuantumInstance:
    """A fair-share instance with one event per quantum boundary.

    It schedules its own slice ends on `engine`, and calls `finish(self)`
    when one completes a stage, which `finish_slice` then takes off.
    """

    def __init__(self, instance_id: InstanceId, quantum: int, engine: QuantumEngine, finish):
        self.id = instance_id
        self.quantum = quantum
        self.engine = engine
        self.finish = finish
        self.queue: deque = deque()
        self.exec_sum = 0  # remaining exec of the queued stages
        self.current: Optional[Stage] = None
        self.slice_start = 0
        self.slice_end = 0
        self.busy_accum = 0
        self.chain = 0  # the seq taken at the start of the running chain

    def busy_time_until(self, now: int) -> int:
        busy = self.busy_accum
        if self.current is not None:
            busy += now - self.slice_start
        return busy

    def backlog(self, now: int) -> int:
        if self.current is None:
            return self.exec_sum
        return self.exec_sum + self.current.remaining - (now - self.slice_start)

    def enqueue(self, stage: Stage, now: int) -> None:
        assert stage.target == self.id.ms
        if self.current is None:
            self.current = stage
            self._start_chain(now)
        else:
            self.queue.append(stage)
            self.exec_sum += stage.remaining

    def _start_chain(self, now: int) -> None:
        self.chain = self.engine.seq()
        self._start_slice(now)

    def _start_slice(self, now: int) -> None:
        self.slice_start = now
        self.slice_end = now + min(self.current.remaining, self.quantum)
        last = self.current.remaining <= self.quantum
        key = (EVENT if last else BOUNDARY, self.chain)
        self.engine.schedule(self.slice_end, self._slice_ended, key=key)

    def _slice_ended(self, _) -> None:
        now = self.engine.now
        stage = self.current
        if stage.remaining > self.quantum:  # a boundary
            self.busy_accum += self.quantum
            stage.remaining -= self.quantum
            if self.queue:
                self.queue.append(stage)
                self.exec_sum += stage.remaining
                self.current = self.queue.popleft()
                self.exec_sum -= self.current.remaining
            self._start_slice(now)
            return
        self.finish(self)
        if self.current is not None:
            self._start_chain(now)

    def finish_slice(self, now: int) -> tuple[Stage, None]:
        """Take off the stage that completed at `now`; the next one, if any, is current."""
        stage = self.current
        assert stage is not None and now == self.slice_end
        self.busy_accum += now - self.slice_start
        stage.remaining = 0
        self.current = None
        if self.queue:
            self.current = self.queue.popleft()
            self.exec_sum -= self.current.remaining
            self.slice_start = now
        return stage, None


def selector(lb, states):
    """`lb` over `states`, a function of the dispatch time; ties go to the lowest slot."""
    if lb is LbPolicy.ROUND_ROBIN:
        turn = cycle(states)  # in slot order
        return lambda now: next(turn)
    if lb is LbPolicy.LEAST_CONNECTION:
        return lambda now: min(states, key=lambda s: (len(s.queue), s.id.slot))
    return lambda now: min(states, key=lambda s: (s.backlog(now), s.id.slot))


class QuantumSimulation(Simulation):
    """A `Simulation` whose fair-share instances fire an event per quantum.

    Every microservice's instances are selected by this module's own load
    balancers, even when there is only one.
    """

    def __init__(self, cfg, replay=None, collect_trace=None):
        super().__init__(cfg, replay=replay, collect_trace=collect_trace)
        self.engine = QuantumEngine()
        self.instances = [
            QuantumInstance(InstanceId(ms, slot), cfg.queue_policy.quantum, self.engine,
                            self._on_slice_complete)
            for ms, n in enumerate(cfg.microservices) for slot in range(n)
        ]
        self._sole = [None] * len(cfg.microservices)
        self._select = [
            selector(cfg.lb_policy, [i for i in self.instances if i.id.ms == ms])
            for ms in range(len(cfg.microservices))
        ]
