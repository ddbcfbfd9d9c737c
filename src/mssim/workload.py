"""Statistical workload generation and trace replay and CSV I/O.

Samplers are pure functions of (model, rng stream state). All real-valued
samples are rounded half-up to whole microseconds with a floor of 1 us.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from scipy.special import ndtri

from .engine import RngStream, SimTime, round_half_up
from .errors import ConfigError, MalformedTrace, ValidationError
from .model import CallNode, ClientRequest, StageRequest

_PROB_TOL = 1e-9


def _validate_weights(path: str, weights: Sequence[float]) -> None:
    if any(w < 0 for w in weights):
        raise ValidationError(path, "weights must be >= 0")
    if not abs(sum(weights) - 1.0) <= _PROB_TOL:  # NaN fails too
        raise ValidationError(path, "must sum to 1")


@dataclass(frozen=True)
class ArrivalModel:
    """Poisson arrivals: i.i.d. exponential gaps with the given mean."""

    mean_interarrival: SimTime  # microseconds

    def validate(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValidationError("arrival.mean_interarrival", "must be > 0")


class ExecUnit(Enum):
    MICROS = "us"
    MILLIS = "ms"


@dataclass(frozen=True)
class ExecModel:
    """Lognormal execution times: exp(N(mu, sigma)) expressed in `unit`."""

    mu: float  # mean of the underlying normal (natural-log scale)
    sigma: float  # std of the underlying normal
    unit: ExecUnit = ExecUnit.MILLIS

    def validate(self) -> None:
        if self.sigma < 0:
            raise ValidationError("exec.sigma", "must be >= 0")


@dataclass(frozen=True)
class DepthModel:
    outcomes: tuple[tuple[int, float], ...]  # (depth, probability)

    def validate(self) -> None:
        if not self.outcomes:
            raise ValidationError("depth", "no outcomes")
        if any(p <= 0 for _, p in self.outcomes):
            raise ValidationError("depth", "probabilities must be > 0")
        if any(d < 0 for d, _ in self.outcomes):
            raise ValidationError("depth", "depths must be >= 0")
        if not abs(sum(p for _, p in self.outcomes) - 1.0) <= _PROB_TOL:
            raise ValidationError("depth", "probabilities must sum to 1")


@dataclass(frozen=True)
class RoutingModel:
    """Which microservices a client request invokes at depth 0."""

    call_probabilities: tuple[float, ...]
    fanout: int = 1

    def validate(self) -> None:
        _validate_weights("routing.call_probabilities", self.call_probabilities)
        positive = sum(1 for w in self.call_probabilities if w > 0)
        if not 1 <= self.fanout <= positive:
            raise ValidationError(
                "routing.fanout", f"must be >= 1 and <= {positive} positive weights"
            )


@dataclass(frozen=True)
class CommunicationModel:
    """Which microservices are invoked after a stage completes.

    The calling microservice is excluded and the weights renormalized.
    """

    comm_probabilities: tuple[float, ...]
    fanout: int = 1

    def validate(self) -> None:
        _validate_weights("communication.comm_probabilities", self.comm_probabilities)
        if self.fanout < 1:
            raise ValidationError("communication.fanout", "must be >= 1")


@dataclass(frozen=True)
class WorkloadModel:
    """Bundle of the per-request sampling models plus the SLA budget."""

    arrival: ArrivalModel
    exec: ExecModel
    depth: DepthModel
    routing: RoutingModel
    communication: CommunicationModel
    sla: SimTime

    def validate(self, n_microservices: int) -> None:
        self.arrival.validate()
        self.exec.validate()
        self.depth.validate()
        self.routing.validate()
        self.communication.validate()
        routing = self.routing.call_probabilities
        comm = self.communication.comm_probabilities
        for path, weights in (
            ("routing.call_probabilities", routing),
            ("communication.comm_probabilities", comm),
        ):
            if len(weights) != n_microservices:
                raise ValidationError(path, "must have one weight per microservice")
        max_depth = max(d for d, _ in self.depth.outcomes)
        if max_depth > 0 and n_microservices < 2:
            raise ValidationError(
                "depth", "depth > 0 requires at least 2 microservices (self-call exclusion)"
            )
        if max_depth > 0:
            # a stage never calls its own microservice; callers below the root
            # always have a positive weight, root callers may not
            loses_own = max_depth > 1 or any(
                w > 0 and comm[i] > 0 for i, w in enumerate(routing)
            )
            available = sum(1 for w in comm if w > 0) - loses_own
            if self.communication.fanout > available:
                raise ValidationError(
                    "communication.fanout",
                    f"exceeds the {available} weights left to every caller",
                )
        if self.sla <= 0:
            raise ValidationError("sla", "must be > 0")


def sample_interarrival(model: ArrivalModel, rng: RngStream) -> SimTime:
    """Exponential gap with the configured mean, rounded, floored at 1 us."""
    u = rng.uniform()
    gap = -model.mean_interarrival * math.log1p(-u)
    return max(1, round_half_up(gap))


def sample_exec_time(model: ExecModel, rng: RngStream) -> SimTime:
    """exp(N(mu, sigma)) scaled by unit, rounded, floored at 1 us."""
    z = ndtri(rng.uniform())
    x = math.exp(model.mu + model.sigma * z)
    if model.unit is ExecUnit.MILLIS:
        x *= 1000.0
    return max(1, round_half_up(x))


def sample_depth(model: DepthModel, rng: RngStream) -> int:
    u = rng.uniform()
    acc = 0.0
    for depth, p in model.outcomes:
        acc += p
        if u < acc:
            return depth
    return model.outcomes[-1][0]


def _sample_categorical(weights: Sequence[float], rng: RngStream) -> int:
    total = sum(weights)
    u = rng.uniform() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    # numerical edge: fall back to the last positive weight
    for i in range(len(weights) - 1, -1, -1):
        if weights[i] > 0:
            return i
    raise ConfigError("all categorical weights are zero")


def _sample_distinct(
    weights: Sequence[float], k: int, rng: RngStream, exclude: Optional[int] = None
) -> list[int]:
    """k distinct indices, weight-proportional, optionally excluding one index."""
    w = list(weights)
    if exclude is not None:
        w[exclude] = 0.0
    if sum(1 for x in w if x > 0) < k:
        raise ConfigError(
            f"cannot choose {k} distinct microservices from the available weights"
        )
    chosen = []
    for _ in range(k):
        i = _sample_categorical(w, rng)
        chosen.append(i)
        w[i] = 0.0
    return chosen


def build_client_request(
    request_id: int,
    now: SimTime,
    wl: WorkloadModel,
    streams: dict[str, RngStream],
) -> ClientRequest:
    """Materialize the full call tree: targets, execution times, depths.

    Depth-0 targets come from the routing model; deeper targets from the
    communication model excluding the parent's microservice. Every path
    reaches the sampled depth.
    """
    depth = sample_depth(wl.depth, streams["depth"])
    n_ms = len(wl.routing.call_probabilities)
    if depth > 0 and n_ms < 2:
        raise ConfigError("sampled depth > 0 with a single configured microservice")

    req = ClientRequest(
        request_id=request_id, created_at=now, sla=wl.sla, max_depth=depth
    )

    roots = _sample_distinct(
        wl.routing.call_probabilities, wl.routing.fanout, streams["routing"]
    )

    def make_node(target: int, d: int, called_by: Optional[int]) -> CallNode:
        stage = StageRequest(
            request_id=request_id,
            target=target,
            exec_time=sample_exec_time(wl.exec, streams["exec"]),
            depth=d,
            called_by=called_by,
        )
        node = CallNode(stage=stage)
        if d < depth:
            children = _sample_distinct(
                wl.communication.comm_probabilities,
                wl.communication.fanout,
                streams["communication"],
                exclude=target,
            )
            node.children = [make_node(c, d + 1, target) for c in children]
        return node

    req.root_stages = [make_node(t, 0, None) for t in roots]
    return req


# --- trace replay and CSV I/O ---------------------------------------------

TRACE_HEADER = ["request_id", "timestamp", "called_ms", "exetime", "hops_done", "called_by"]


@dataclass(frozen=True, order=True)
class TraceRow:
    request_id: int
    timestamp: SimTime
    called_ms: int
    exetime: SimTime
    hops_done: int
    called_by: Optional[int] = None

    def validate(self) -> None:
        if (self.hops_done == 0) != (self.called_by is None):
            raise MalformedTrace(
                f"request {self.request_id}: hops_done {self.hops_done} with "
                f"called_by {self.called_by!r}"
            )
        if self.exetime <= 0:
            raise MalformedTrace(f"request {self.request_id}: exetime <= 0")


def replay_trace(rows: Sequence[TraceRow]) -> list[ClientRequest]:
    """Reconstruct ClientRequests from trace rows; samplers are bypassed.

    Rows of one request must form a forest: roots at hops_done 0, and for
    every deeper row a unique parent row at hops_done - 1 whose called_ms
    equals the row's called_by.
    """
    by_request: dict[int, list[TraceRow]] = {}
    for row in rows:
        row.validate()
        by_request.setdefault(row.request_id, []).append(row)

    requests = []
    for request_id in sorted(by_request):
        req_rows = sorted(
            by_request[request_id], key=lambda r: (r.hops_done, r.timestamp)
        )
        created_at = min(r.timestamp for r in req_rows)
        nodes_by_depth: dict[int, list[CallNode]] = {}
        roots: list[CallNode] = []
        for row in req_rows:
            stage = StageRequest(
                request_id=request_id,
                target=row.called_ms,
                exec_time=row.exetime,
                depth=row.hops_done,
                called_by=row.called_by,
            )
            node = CallNode(stage=stage)
            if row.hops_done == 0:
                roots.append(node)
            else:
                if row.called_by == row.called_ms:
                    raise MalformedTrace(
                        f"request {request_id}: self-call edge at hops {row.hops_done}"
                    )
                parents = [
                    p
                    for p in nodes_by_depth.get(row.hops_done - 1, [])
                    if p.stage.target == row.called_by
                ]
                if not parents:
                    raise MalformedTrace(
                        f"request {request_id}: no parent for hops {row.hops_done} "
                        f"called_by {row.called_by}"
                    )
                if len(parents) > 1:
                    raise MalformedTrace(
                        f"request {request_id}: ambiguous parent for hops "
                        f"{row.hops_done} called_by {row.called_by}"
                    )
                parents[0].children.append(node)
            nodes_by_depth.setdefault(row.hops_done, []).append(node)
        if not roots:
            raise MalformedTrace(f"request {request_id}: no depth-0 row")
        max_depth = max(r.hops_done for r in req_rows)
        requests.append(
            ClientRequest(
                request_id=request_id,
                created_at=created_at,
                sla=0,  # SLA comes from the run config, not the trace
                max_depth=max_depth,
                root_stages=roots,
            )
        )
    return requests


def write_trace_csv(rows: Sequence[TraceRow], fp: io.TextIOBase) -> None:
    """UTF-8 CSV, `called_by` empty for depth 0, integer microsecond times."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for r in rows:
        writer.writerow(
            [
                r.request_id,
                r.timestamp,
                r.called_ms,
                r.exetime,
                r.hops_done,
                "" if r.called_by is None else r.called_by,
            ]
        )


def read_trace_csv(fp: io.TextIOBase) -> list[TraceRow]:
    reader = csv.reader(fp)
    header = next(reader, None)
    if header != TRACE_HEADER:
        raise MalformedTrace(f"bad trace header: {header!r}")
    rows = []
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != 6:
            raise MalformedTrace(f"line {lineno}: expected 6 fields, got {len(rec)}")
        try:
            row = TraceRow(
                request_id=int(rec[0]),
                timestamp=int(rec[1]),
                called_ms=int(rec[2]),
                exetime=int(rec[3]),
                hops_done=int(rec[4]),
                called_by=None if rec[5] == "" else int(rec[5]),
            )
            row.validate()
        except (ValueError, MalformedTrace) as e:
            raise MalformedTrace(f"line {lineno}: {e}") from e
        rows.append(row)
    return rows
