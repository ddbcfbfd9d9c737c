"""Domain types for microservices, client requests, and stage requests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .engine import SimTime
from .errors import InvalidRequest

MicroserviceId = int  # 0-based index into the configured microservice list


class InstanceId(NamedTuple):
    ms: MicroserviceId
    slot: int  # 0-based within the microservice


@dataclass(slots=True)
class StageRequest:
    """One microservice invocation within a client request.

    `remaining` starts at exec_time and is decremented by fair-share slices.
    `deadline` is set only under the early-deadline policies.
    """

    request_id: int
    target: MicroserviceId
    exec_time: SimTime  # microseconds, > 0
    depth: int  # hops done; 0 for gateway-invoked stages
    called_by: Optional[MicroserviceId] = None
    arrival_at_instance: Optional[SimTime] = None
    deadline: Optional[SimTime] = None
    remaining: SimTime = -1

    def __post_init__(self) -> None:
        if self.remaining < 0:
            self.remaining = self.exec_time


@dataclass(slots=True)
class CallNode:
    stage: StageRequest
    children: list["CallNode"] = field(default_factory=list)


@dataclass(slots=True)
class ClientRequest:
    """Full call tree of one client request, materialized at build time."""

    request_id: int
    created_at: SimTime
    sla: SimTime  # total deadline budget
    max_depth: int
    root_stages: list[CallNode] = field(default_factory=list)
    # stage_count and critical_path_exec, counted by build_client_request and
    # replay_trace while they build the tree; 0 when the tree was built by hand
    stages: int = 0
    crit_exec: SimTime = 0


def iter_nodes(req: ClientRequest) -> Iterator[CallNode]:
    """Depth-first preorder over all CallNodes."""
    stack = list(reversed(req.root_stages))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def stage_count(req: ClientRequest) -> int:
    return sum(1 for _ in iter_nodes(req))


def paths_max_depth(req: ClientRequest) -> int:
    """Maximum `depth` over all CallNodes; 0 when no microservice calls another."""
    return max(node.stage.depth for node in iter_nodes(req))


def critical_path_exec(req: ClientRequest) -> SimTime:
    """Max over root-to-leaf paths of the summed execution time along the path."""
    best = 0
    stack = [(root, 0) for root in req.root_stages]
    while stack:
        node, above = stack.pop()
        path = above + node.stage.exec_time
        if node.children:
            stack.extend((child, path) for child in node.children)
        elif path > best:
            best = path
    return best


def validate_tree(req: ClientRequest) -> None:
    """Reject trees violating the depth / self-call / caller invariants."""
    if not req.root_stages:
        raise InvalidRequest(f"request {req.request_id}: empty call tree")
    stack: list[tuple[CallNode, Optional[CallNode]]] = [
        (root, None) for root in reversed(req.root_stages)
    ]
    while stack:
        node, parent = stack.pop()
        st = node.stage
        if st.exec_time <= 0:
            raise InvalidRequest(f"request {req.request_id}: exec_time <= 0")
        if parent is None:
            if st.depth != 0 or st.called_by is not None:
                raise InvalidRequest(
                    f"request {req.request_id}: root stage must have depth 0 and no caller"
                )
        else:
            if st.depth != parent.stage.depth + 1:
                raise InvalidRequest(
                    f"request {req.request_id}: child depth {st.depth} != parent depth + 1"
                )
            if st.called_by != parent.stage.target:
                raise InvalidRequest(
                    f"request {req.request_id}: called_by does not match parent target"
                )
            if st.target == parent.stage.target:
                raise InvalidRequest(
                    f"request {req.request_id}: microservice {st.target} calls itself"
                )
        if st.depth > req.max_depth:
            raise InvalidRequest(
                f"request {req.request_id}: depth {st.depth} exceeds max_depth {req.max_depth}"
            )
        stack.extend((child, node) for child in reversed(node.children))
