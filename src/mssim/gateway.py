"""API-gateway layer: service discovery registry and load-balancing policies.

The gateway adds zero delay: a dispatched stage lands in the chosen
instance's queue at the same simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .engine import SimTime
from .errors import DuplicateInstance, NoActiveInstance
from .model import InstanceId, MicroserviceId


class LbPolicy(Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_CONNECTION = "least_connection"
    GREEDY = "greedy"


@dataclass(slots=True)
class InstanceLoadView:
    """Load snapshot of one instance as the balancer sees it."""

    instance: InstanceId
    queued_count: int
    queued_exec_sum: SimTime  # sum of remaining exec over queued stages
    current_remaining: SimTime  # remaining exec of the in-flight stage, 0 if idle


class Registry:
    """Service discovery: microservice id -> active instances (+ RR cursors)."""

    def __init__(self) -> None:
        self.entries: dict[MicroserviceId, list[InstanceId]] = {}
        self.rr_cursor: dict[MicroserviceId, int] = {}

    def instances(self, ms: MicroserviceId) -> list[InstanceId]:
        return self.entries.get(ms, [])

    def register(self, instance: InstanceId) -> None:
        lst = self.entries.setdefault(instance.ms, [])
        if instance in lst:
            raise DuplicateInstance(f"{instance} already registered")
        lst.append(instance)
        self.rr_cursor.setdefault(instance.ms, 0)

    def select_round_robin(self, ms: MicroserviceId) -> InstanceId:
        """Each instance in turn; loops back at the end of the list."""
        lst = self.entries.get(ms, [])
        if not lst:
            raise NoActiveInstance(f"microservice {ms} has no active instances")
        cursor = self.rr_cursor[ms]
        instance = lst[cursor]
        self.rr_cursor[ms] = (cursor + 1) % len(lst)
        return instance


def select_least_connection(views: Sequence[InstanceLoadView]) -> InstanceId:
    """Fewest queued requests; ties broken by lowest slot index."""
    if not views:
        raise NoActiveInstance("no instance views")
    best = min(views, key=lambda v: (v.queued_count, v.instance.slot))
    return best.instance


def select_greedy(views: Sequence[InstanceLoadView]) -> InstanceId:
    """Least load = queued exec sum + remaining exec of the running stage."""
    if not views:
        raise NoActiveInstance("no instance views")
    best = min(
        views,
        key=lambda v: (v.queued_exec_sum + v.current_remaining, v.instance.slot),
    )
    return best.instance
