"""API-gateway layer: service discovery registry and load-balancing policies.

The gateway adds zero delay: a dispatched stage lands in the chosen
instance's queue at the same simulated time. Every selection takes the
dispatch time `now`, which only greedy reads.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from .engine import SimTime
from .model import MicroserviceId

if TYPE_CHECKING:
    from .instance import InstanceState


class LbPolicy(Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_CONNECTION = "least_connection"
    GREEDY = "greedy"


class Registry:
    """Service discovery: microservice id -> its instances in slot order (+ RR cursors).

    Every instance is registered once, before the run. Every microservice a
    stage can target has one: the config and `Simulation` refuse anything
    else before the first event.
    """

    def __init__(self) -> None:
        self.entries: dict[MicroserviceId, list[InstanceState]] = {}
        self.rr_cursor: dict[MicroserviceId, int] = {}

    def instances(self, ms: MicroserviceId) -> list[InstanceState]:
        return self.entries[ms]

    def register(self, instance: InstanceState) -> None:
        """Add an instance; register each microservice's instances in slot order, each once."""
        self.entries.setdefault(instance.id.ms, []).append(instance)
        self.rr_cursor.setdefault(instance.id.ms, 0)

    def select_round_robin(self, ms: MicroserviceId, now: Optional[SimTime] = None) -> InstanceState:
        """Each instance in turn; loops back at the end of the list."""
        lst = self.entries[ms]
        cursor = self.rr_cursor[ms]
        instance = lst[cursor]
        self.rr_cursor[ms] = (cursor + 1) % len(lst)
        return instance


def select_least_connection(
    states: Sequence[InstanceState], now: Optional[SimTime] = None
) -> InstanceState:
    """Fewest queued stages; ties broken by lowest slot index."""
    best, least = None, 0
    for state in states:  # a loop: a key function would add a call per instance
        queued = len(state.queue)
        if best is None or queued < least or (queued == least and state.id.slot < best.id.slot):
            best, least = state, queued
    return best


def select_greedy(states: Sequence[InstanceState], now: SimTime) -> InstanceState:
    """Least backlog at `now` (InstanceState.backlog); ties broken by lowest slot index."""
    best, least = None, 0
    for state in states:  # a loop: a key function would add a call per instance
        backlog = state.backlog(now)
        if best is None or backlog < least or (backlog == least and state.id.slot < best.id.slot):
            best, least = state, backlog
    return best
