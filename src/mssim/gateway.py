"""API-gateway layer: service discovery registry and load-balancing policies.

The gateway adds zero delay: a dispatched stage lands in the chosen
instance's queue at the same simulated time.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Sequence

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

    def select_round_robin(self, ms: MicroserviceId) -> InstanceState:
        """Each instance in turn; loops back at the end of the list."""
        lst = self.entries[ms]
        cursor = self.rr_cursor[ms]
        instance = lst[cursor]
        self.rr_cursor[ms] = (cursor + 1) % len(lst)
        return instance


def select_least_connection(states: Sequence[InstanceState]) -> InstanceState:
    """Fewest queued stages; ties broken by lowest slot index."""
    return min(states, key=lambda s: (len(s.queue), s.id.slot))


def select_greedy(states: Sequence[InstanceState], now: SimTime) -> InstanceState:
    """Least backlog at `now` (InstanceState.backlog); ties broken by lowest slot index."""
    return min(states, key=lambda s: (s.backlog(now), s.id.slot))
