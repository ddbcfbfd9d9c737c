"""The per-quantum fair-share engine that `mssim.instance.FairShareState` replaced.

Every quantum boundary is an event: the instance ends the running slice,
sends an unfinished stage to the tail of its queue and schedules the next
slice end through `Engine.schedule`. `test_quantum_oracle.py` holds the
event-per-completion engine to it, byte for byte. It shares the engine, the
gateway and the metrics with `mssim`, and nothing of the fair-share
instance.
"""

from collections import deque
from typing import Optional

from mssim.gateway import Registry
from mssim.model import InstanceId, Stage
from mssim.simulation import Simulation


class QuantumInstance:
    """A fair-share instance with one event per quantum boundary."""

    def __init__(self, instance_id: InstanceId, quantum: int):
        self.id = instance_id
        self.quantum = quantum
        self.queue: deque = deque()
        self.exec_sum = 0  # remaining exec of the queued stages
        self.current: Optional[Stage] = None
        self.slice_start = 0
        self.slice_end = 0
        self.busy_accum = 0

    def busy_time_until(self, now: int) -> int:
        busy = self.busy_accum
        if self.current is not None:
            busy += now - self.slice_start
        return busy

    def backlog(self, now: int) -> int:
        if self.current is None:
            return self.exec_sum
        return self.exec_sum + self.current.remaining - (now - self.slice_start)

    def enqueue(self, stage: Stage, now: int) -> Optional[int]:
        """Returns the slice end to schedule when the instance was idle."""
        assert stage.target == self.id.ms
        if self.current is None:
            return self._start(stage, now)
        self.queue.append(stage)
        self.exec_sum += stage.remaining
        return None

    def _start(self, stage: Stage, now: int) -> int:
        self.current = stage
        self.slice_start = now
        self.slice_end = now + min(stage.remaining, self.quantum)
        return self.slice_end

    def finish_slice(self, now: int) -> tuple[Optional[Stage], Optional[int]]:
        """(completed stage or None if requeued, next slice end or None)."""
        stage = self.current
        assert stage is not None and now == self.slice_end
        ran = now - self.slice_start
        self.busy_accum += ran
        stage.remaining -= ran
        if stage.remaining > 0:
            if self.queue:
                self.queue.append(stage)
                self.exec_sum += stage.remaining
                stage = self.queue.popleft()
                self.exec_sum -= stage.remaining
            return None, self._start(stage, now)
        if self.queue:
            nxt = self.queue.popleft()
            self.exec_sum -= nxt.remaining
            return stage, self._start(nxt, now)
        self.current = None
        return stage, None


class QuantumSimulation(Simulation):
    """A `Simulation` whose fair-share instances fire an event per quantum."""

    def __init__(self, cfg, replay=None, collect_trace=None):
        super().__init__(cfg, replay=replay, collect_trace=collect_trace)
        self.engine.log = None
        self.registry = Registry()
        self.instances = []
        for state in [InstanceId(ms, slot) for ms, n in enumerate(cfg.microservices)
                      for slot in range(n)]:
            instance = QuantumInstance(state, cfg.queue_policy.quantum)
            self.registry.register(instance)
            self.instances.append(instance)

    def _on_slice_complete(self, state: QuantumInstance) -> None:
        now = self.engine.now
        stage, next_end = state.finish_slice(now)
        if stage is not None:
            self.collector.record_stage(stage.request_id, stage.arrival, now, stage.exec_time)
            client = stage.client
            stage.client = None
            for child in stage.children:
                child.client = client
                self._dispatch_stage(child, now)
            client.pending -= 1
            if client.pending == 0:
                self.collector.record_client(
                    client.request_id, client.created_at, now, client.crit_exec
                )
        if next_end is not None:
            self.engine.schedule(next_end, self._on_slice_complete, state)
