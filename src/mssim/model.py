"""Domain types: microservice instances, client requests and their stages.

A client request is a tree of `Stage`s, one per microservice invocation.
The same object is built by the workload, queued and run by one instance,
and carries its run state (arrival, remaining exec, deadline, owning
request) through the simulation, so dispatching a stage allocates nothing
but an optional trace row. Sampled and replayed trees alike are built
when the simulation schedules their request's arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

from .engine import SimTime

MicroserviceId = int  # 0-based index into the configured microservice list


class InstanceId(NamedTuple):
    ms: MicroserviceId
    slot: int  # 0-based within the microservice


@dataclass(slots=True, eq=False)
class Stage:
    """One microservice invocation: a node of a client request's call tree.

    The tree fields (up to `children`) are fixed when the request is built.
    The rest is run state that the simulation sets when it dispatches the
    stage: `arrival` at its instance, `remaining` exec (starting at
    exec_time, decremented by fair-share slices), the owning `client`
    (cleared again when the stage completes), and `deadline`, only under
    the early-deadline policies.
    """

    request_id: int
    target: MicroserviceId
    exec_time: SimTime  # microseconds, > 0
    depth: int  # hops done; 0 for gateway-invoked stages
    called_by: Optional[MicroserviceId] = None
    # stages this one calls when it completes; builders share () among leaves
    children: Sequence["Stage"] = ()
    arrival: Optional[SimTime] = None
    deadline: Optional[SimTime] = None
    remaining: SimTime = 0
    client: Optional["ClientRequest"] = field(default=None, repr=False)


@dataclass(slots=True)
class ClientRequest:
    """Full call tree of one client request.

    A run builds each request when it schedules its arrival, a replayed one
    with the rest of its batch. At the arrival the simulation takes the
    roots off the request, leaving `root_stages` empty, so a finished stage
    is freed once its children are dispatched: a run holds the stages in
    flight and the trees not yet arrived, not every stage of a request
    until its last completes. Every request of a run has the run's `sla`
    as its deadline budget.
    """

    request_id: int
    created_at: SimTime
    root_stages: Sequence[Stage] = field(default_factory=list)
    # stage_count and critical_path_exec, counted by build_client_request and
    # ReplayPlan while they build the tree
    stages: int = 0
    crit_exec: SimTime = 0
    pending: int = 0  # stages not yet completed, set when the request arrives


def iter_nodes(req: ClientRequest) -> Iterator[Stage]:
    """Depth-first preorder over all stages."""
    stack = list(reversed(req.root_stages))
    while stack:
        stage = stack.pop()
        yield stage
        stack.extend(reversed(stage.children))


def stage_count(req: ClientRequest) -> int:
    return sum(1 for _ in iter_nodes(req))


def critical_path_exec(req: ClientRequest) -> SimTime:
    """Max over root-to-leaf paths of the summed execution time along the path."""
    best = 0
    stack = [(root, 0) for root in req.root_stages]
    while stack:
        stage, above = stack.pop()
        path = above + stage.exec_time
        if stage.children:
            stack.extend((child, path) for child in stage.children)
        elif path > best:
            best = path
    return best
