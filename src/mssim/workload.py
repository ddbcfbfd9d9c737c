"""Statistical workload generation and trace replay and CSV I/O.

Samplers are pure functions of (model, rng stream state). All real-valued
samples are rounded half-up to whole microseconds with a floor of 1 us.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import astuple, dataclass
from enum import Enum
from functools import partial
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .engine import RngStream, SimTime, doubles
from .errors import ConfigError, MalformedTrace, ValidationError
from .instance import QueueKind, level_deadlines
from .metrics import WRITE_ROWS, ColumnView, int_column
from .model import ClientRequest, Stage

_PROB_TOL = 1e-9
MAX_TIME: SimTime = 2**62  # us; the longest exec time, mean gap or end_time a config may give
_LOG_MAX_TIME = math.log(MAX_TIME)


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
        if not 0 < self.mean_interarrival <= MAX_TIME:
            raise ValidationError("arrival.mean_interarrival", f"must be > 0 and <= {MAX_TIME} us")


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
        # the largest draw is u = 1 - 2**-53; compared as logs, which cannot overflow
        scale = 1000.0 if self.unit is ExecUnit.MILLIS else 1.0
        if not self.mu + self.sigma * _Z_MAX + math.log(scale) <= _LOG_MAX_TIME:
            raise ValidationError("exec", f"largest exec time exceeds {MAX_TIME} us")


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


# --- samplers -------------------------------------------------------------
# A chunk transform gives each uniform the sample a scalar draw of it would:
# numpy does only what IEEE 754 rounds correctly (+ - * /, sqrt, comparisons,
# searchsorted) in the scalar order, and exp, log and log1p go through `math`
# one element at a time, so no sample depends on the host's numpy build.


def _elementwise(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn of each element, called on Python floats."""
    return np.fromiter(map(fn, x.tolist()), np.float64, len(x))


def _whole_us(x: np.ndarray) -> Sequence[SimTime]:
    """round_half_up to whole microseconds, floored at 1 us, as an array("q") below 2**62."""
    whole = np.maximum(np.floor(x + 0.5), 1.0)
    if whole.max() < 2.0**62:  # int64 holds these exactly; NaN and inf fail as int() does
        return array("q", whole.astype(np.int64).tobytes())
    return list(map(int, whole.tolist()))


def interarrival_chunk(model: ArrivalModel, u: np.ndarray) -> Sequence[SimTime]:
    """Exponential gaps with the configured mean."""
    return _whole_us(float(-model.mean_interarrival) * _elementwise(math.log1p, -u))


# Cephes ndtri (inverse of the standard normal CDF), as in scipy.special.ndtri.
# The coefficients and the Horner evaluation order are Cephes', so results
# match it bit for bit. Each Q has Cephes' implicit leading 1.0 written out.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# central range y in (exp(-2), 1 - exp(-2)); with w = y - 0.5,
# z = sqrt(2 pi) * (w + w * w^2 P0(w^2) / Q0(w^2))
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# tails: with x = sqrt(-2 log y) and t = 1/x, |z| = x - log(x)/x - t P(t) / Q(t);
# P1, Q1 for x in [2, 8), that is y down to exp(-32)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# P2, Q2 for x >= 8
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polyval(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner, one multiply and one add per step."""
    acc = np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def ndtri(y: np.ndarray) -> np.ndarray:
    """The z with standard normal CDF(z) = y; -inf at 0, inf at 1, nan outside [0, 1]."""
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)
    z = np.where(upper, math.inf, -math.inf)  # t == 0, where log(t) is undefined
    mid = t > _EXP_M2
    w = t[mid] - 0.5
    w2 = w * w
    z[mid] = (w + w * (w2 * _polyval(w2, _P0) / _polyval(w2, _Q0))) * _S2PI
    tail = (t > 0.0) & ~mid
    x = np.sqrt(-2.0 * _elementwise(math.log, t[tail]))
    r = 1.0 / x
    p = np.where(
        x < 8.0,
        r * _polyval(r, _P1) / _polyval(r, _Q1),
        r * _polyval(r, _P2) / _polyval(r, _Q2),
    )
    x = x - _elementwise(math.log, x) / x - p
    z[tail] = np.where(upper[tail], x, -x)
    z[~((y >= 0.0) & (y <= 1.0))] = math.nan
    return z


# ndtri(1 - 2**-53), the largest normal draw; a literal, because calling ndtri
# at import would page in numpy's ufunc loops in runs that never sample
_Z_MAX = 8.209536151601387


def exec_chunk(model: ExecModel, u: np.ndarray) -> Sequence[SimTime]:
    """exp(N(mu, sigma)) scaled by unit."""
    scale = 1000.0 if model.unit is ExecUnit.MILLIS else 1.0  # x * 1.0 is x
    if model.sigma == 0:  # also where u == 0, which would give 0 * -inf
        return _whole_us(np.full(len(u), math.exp(float(model.mu)) * scale))
    a = float(model.mu) + float(model.sigma) * ndtri(u)
    return _whole_us(_elementwise(math.exp, a) * scale)


def depth_chunk(model: DepthModel, u: np.ndarray) -> list[int]:
    """The first depth whose cumulative probability exceeds u; the last one past the sum."""
    acc = 0.0
    cum = [acc := acc + p for _, p in model.outcomes]  # summed left to right
    depths = [d for d, _ in model.outcomes] + [model.outcomes[-1][0]]
    return list(map(depths.__getitem__, np.searchsorted(cum, u, side="right").tolist()))


class Picker:
    """Weight-proportional draws of distinct indices, one uniform u per index.

    Each pick is the first index whose cumulative weight exceeds u * total,
    or the last positive weight past the numerical end. The first pick's
    table is built once per excluded index; the table of each later pick,
    which also removes the indices already picked, is built when it is drawn.
    """

    def __init__(self, weights: Sequence[float], uniform: Callable[[], float]):
        self._weights = weights
        self._uniform = uniform
        self._first: dict[Optional[int], tuple[list[float], int]] = {}

    def _table(self, removed: Sequence[Optional[int]]) -> tuple[list[float], int]:
        # summed left to right: sum() of floats is compensated from Python 3.12
        # on and would move draws between versions; acc + 0.0 is acc
        acc = 0.0
        cum = [acc := acc + (0.0 if i in removed else w) for i, w in enumerate(self._weights)]
        positive = [i for i, w in enumerate(self._weights) if w > 0 and i not in removed]
        if not positive:
            raise ConfigError("cannot choose distinct microservices from the available weights")
        return cum, positive[-1]

    def one(self, exclude: Optional[int] = None) -> int:
        """The first pick of `distinct`, on its own."""
        cum, last = self._first.get(exclude) or self._first.setdefault(
            exclude, self._table((exclude,))
        )
        i = bisect_right(cum, self._uniform() * cum[-1])
        return last if i == len(cum) else i

    def distinct(self, k: int, exclude: Optional[int] = None) -> list[int]:
        picks = [self.one(exclude)]
        while len(picks) < k:
            cum, last = self._table((exclude, *picks))
            i = bisect_right(cum, self._uniform() * cum[-1])
            picks.append(last if i == len(cum) else i)
        return picks


class Samplers:
    """The draws of one sampled run, each kind from its own `RngStream`."""

    def __init__(self, wl: WorkloadModel, seed: int, chunk: int = 1024):
        def stream(name: str, transform: Callable = doubles) -> Callable:
            return RngStream(seed, name, chunk, transform).draw

        self.model = wl
        self.interarrival = stream("arrival", partial(interarrival_chunk, wl.arrival))
        self.exec_time = stream("exec", partial(exec_chunk, wl.exec))
        self.depth = stream("depth", partial(depth_chunk, wl.depth))
        self.routing = Picker(wl.routing.call_probabilities, stream("routing"))
        self.communication = Picker(wl.communication.comm_probabilities, stream("communication"))
        self.chains = wl.routing.fanout == wl.communication.fanout == 1


def sample_interarrival(samplers: Samplers) -> SimTime:
    """The gap to the next arrival."""
    return samplers.interarrival()


def build_client_request(request_id: int, now: SimTime, samplers: Samplers) -> ClientRequest:
    """Materialize the full call tree: targets, execution times, depths.

    Depth-0 targets come from the routing model; deeper targets from the
    communication model excluding the parent's microservice. Every path
    reaches the sampled depth, so with both fan-outs 1 the tree is a chain,
    built level by level. Each stream is drawn in depth-first preorder.
    """
    depth = samplers.depth()
    if not samplers.chains:
        return _tree(request_id, now, depth, samplers)
    exec_time_of, callee = samplers.exec_time, samplers.communication.one
    stage = root = Stage(request_id, samplers.routing.one(), exec_time_of(), 0)
    crit_exec = root.exec_time
    for d in range(1, depth + 1):
        child = Stage(request_id, callee(stage.target), exec_time_of(), d, stage.target)
        crit_exec += child.exec_time
        stage.children = (child,)
        stage = child
    return ClientRequest(request_id, now, (root,), depth + 1, crit_exec)


def _tree(request_id: int, now: SimTime, depth: int, samplers: Samplers) -> ClientRequest:
    """`build_client_request` for a fan-out above 1, from a depth-first stack."""
    wl = samplers.model
    roots = samplers.routing.distinct(wl.routing.fanout)
    exec_time_of = samplers.exec_time
    callees = samplers.communication.distinct
    fanout = wl.communication.fanout
    root_stages: list[Stage] = []
    stages = crit_exec = 0
    # depth-first preorder, the order in which the streams are drawn; an
    # entry is (target, depth, caller, list to append the stage to, exec above)
    stack = [(t, 0, None, root_stages, 0) for t in reversed(roots)]
    while stack:
        target, d, called_by, siblings, above = stack.pop()
        exec_time = exec_time_of()
        stages += 1
        path = above + exec_time
        children: Sequence[Stage] = ()  # shared by every leaf
        if d < depth:
            children = []
            picks = callees(fanout, target)
            stack.extend((c, d + 1, target, children, path) for c in reversed(picks))
        elif path > crit_exec:  # every path reaches the sampled depth
            crit_exec = path
        siblings.append(Stage(request_id, target, exec_time, d, called_by, children))
    return ClientRequest(request_id, now, root_stages, stages, crit_exec)


# --- trace replay and CSV I/O ---------------------------------------------

TRACE_HEADER = ["request_id", "timestamp", "called_ms", "exetime", "hops_done", "called_by"]
_INT64 = 2**63  # the columns hold values in [-2**63, 2**63)


@dataclass(frozen=True)
class TraceRow:
    request_id: int
    timestamp: SimTime
    called_ms: int
    exetime: SimTime
    hops_done: int
    called_by: Optional[int] = None


# The rules a trace row must pass, as (reason, test that is true where a row
# breaks the rule). Tests run on columns or on one row's Python ints, with
# called_by -1 where `given` is false; the time bounds are those of a config.
_ROW_RULES = (
    ("hops_done {hops_done} with called_by {called_by!r}",
     lambda hops_done, given, **_: (hops_done == 0) == given),
    ("called_by {called_by} < 0", lambda called_by, given, **_: given & (called_by < 0)),
    (f"exetime must be > 0 and <= {MAX_TIME} us",
     lambda exetime, **_: (exetime <= 0) | (exetime > MAX_TIME)),
    (f"timestamp must be >= 0 and <= {MAX_TIME} us",
     lambda timestamp, **_: (timestamp < 0) | (timestamp > MAX_TIME)),
)


def _checked_row(values: Sequence[Optional[int]]) -> Sequence[Optional[int]]:
    """The values of one row, refused by its first broken rule, then if one is past int64."""
    row = dict(zip(TRACE_HEADER, values))
    given = row["called_by"] is not None
    cols = dict(row, called_by=row["called_by"] if given else -1, given=given)
    for reason, broken in _ROW_RULES:
        if broken(**cols):
            raise MalformedTrace(f"request {row['request_id']}: " + reason.format(**row))
    for name, value in row.items():
        if value is not None and not -_INT64 <= value < _INT64:
            raise MalformedTrace(f"request {row['request_id']}: {name} does not fit int64")
    return values


def replay_trace(rows: Sequence[TraceRow]) -> ReplayPlan:
    """Check trace rows as call trees and plan their replay; samplers are bypassed.

    Takes `TraceColumns`, as `read_trace_csv` returns them, or any sequence
    of `TraceRow`s, which are checked and turned into columns first. Rows
    of one request must form a forest: roots at hops_done 0, and for every
    deeper row a unique parent row at hops_done - 1 whose called_ms equals
    the row's called_by. One stable sort by (request_id, hops_done,
    timestamp) puts every parent before its children and fixes the order
    of siblings, ties in row order. Every row is checked here, and the
    first that breaks the forest, in that order, raises MalformedTrace; the
    returned plan builds a request's `Stage`s only when it is admitted.

    The columns are narrowed, then sorted, one at a time, and never
    changed. Given the only reference to its `TraceColumns`, as the
    `--trace-in` path gives it, the set-up frees each read column once its
    narrowed copy replaces it, and never holds the read trace beside the
    plan; a caller that keeps its columns finds them as they were.
    """
    if not isinstance(rows, TraceColumns):
        rows = TraceColumns.from_rows(rows)
    # numpy views of the columns, each holding its buffer; with `rows`
    # dropped, each buffer goes with the last view of it
    cols = dict(zip(TRACE_HEADER, rows.arrays()))
    rows = None
    for name in TRACE_HEADER:
        cols[name] = _narrow(cols[name])
    keys = ("timestamp", "hops_done", "request_id")  # last key first; the sort is stable
    order = _narrow(np.lexsort([cols[name] for name in keys]))
    sort = lambda name: cols.pop(name)[order]
    request_id = sort("request_id")
    # True at each request's first row and past the last row
    bound = np.ones(len(order) + 1, bool)
    bound[1:-1] = request_id[1:] != request_id[:-1]
    bounds = _narrow(np.flatnonzero(bound))
    starts = bounds[:-1]
    request_id = _narrow(request_id[starts])
    created_at = _narrow(np.minimum.reduceat(sort("timestamp"), starts))
    called_ms = sort("called_ms")
    back = _parent_distances(request_id, bounds, called_ms, sort("hops_done"), sort("called_by"))
    return ReplayPlan(request_id, created_at, bounds, called_ms, sort("exetime"), back)


def _narrow(a: np.ndarray) -> np.ndarray:
    """a in the narrowest signed integer type that holds all of its values."""
    lo, hi = (int(a.min()), int(a.max())) if len(a) else (0, 0)
    for t in (np.int8, np.int16, np.int32):
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max:
            return a.astype(t, copy=False)
    return a.astype(np.int64, copy=False)


def _parent_distances(
    request_id: np.ndarray,
    bounds: np.ndarray,
    called_ms: np.ndarray,
    hops_done: np.ndarray,
    called_by: np.ndarray,
) -> np.ndarray:
    """How many rows back each sorted row's parent is, 0 for a root.

    Requests are checked in order, PLAN_BATCH at a time; `bounds` holds each
    one's first row and then the row count. The first row that calls its
    own microservice, or has no unique parent one level up, raises
    MalformedTrace.
    """
    # a type that holds -(row count) holds every distance
    back = np.zeros(len(called_ms), np.min_scalar_type(-len(called_ms)))
    for b in range(0, len(request_id), PLAN_BATCH):
        lo, hi = bounds[b], bounds[min(b + PLAN_BATCH, len(request_id))]
        heads = zip(
            request_id[b : b + PLAN_BATCH].tolist(), np.diff(bounds[b : b + PLAN_BATCH + 1]).tolist()
        )
        cells = zip(*(col[lo:hi].tolist() for col in (called_ms, hops_done, called_by)))
        distances: list[int] = []
        for rid, size in heads:
            # microservice -> index in the block of the row at depth - 1 and
            # at depth; None where two rows of a level share one
            above: dict[int, Optional[int]] = {}
            level: dict[int, Optional[int]] = {}
            depth = -1
            for target, hops, caller in islice(cells, size):
                if hops != depth:
                    above, level, depth = level if hops == depth + 1 else {}, {}, hops
                i = len(distances)
                if hops == 0:
                    distances.append(0)
                else:
                    if caller == target:
                        raise MalformedTrace(f"request {rid}: self-call edge at hops {hops}")
                    parent = above.get(caller)
                    if parent is None:
                        problem = "ambiguous parent" if caller in above else "no parent"
                        raise MalformedTrace(
                            f"request {rid}: {problem} for hops {hops} called_by {caller}"
                        )
                    distances.append(i - parent)
                level[target] = None if target in level else i
        back[lo:hi] = distances
    return back


# requests a plan builds, and `replay_trace` checks, at a time: few enough
# that their trees are still in the CPU caches when they are dispatched and
# that few garbage collections find them young; on the benchmark's replay
# trace, building 128 at a time took 30% less time than 2,048 at a time. A
# checked batch's rows are Python lists of 32 B a row, which at 2,048
# requests outweighed the columns of a trace of a few thousand rows
PLAN_BATCH = 128


class ReplayPlan:
    """The requests of a checked trace, each built when it is admitted.

    Rows are held in columns, grouped by request in request_id order and
    within a request by (hops_done, timestamp), so every parent row comes
    before its children. Per row the plan keeps `called_ms`, `exetime` and
    `back`, how many rows back its parent is (0 for a root); a stage's
    depth and caller are its parent's depth + 1 and target. Per request it
    keeps `request_id` and `created_at`, the earliest timestamp of its
    rows; `starts` holds each request's first row, then the row count.
    Each column is held in the narrowest integer type that holds it. No
    tree is kept, so a plan replays alike any number of times.
    """

    __slots__ = ("request_id", "created_at", "starts", "called_ms", "exetime", "back")

    def __init__(self, *columns: np.ndarray):
        for name, col in zip(self.__slots__, columns):
            setattr(self, name, _narrow(col))

    def admitted(
        self, kind: Optional[QueueKind], sla: SimTime, end_time: SimTime
    ) -> Iterator[ClientRequest]:
        """The requests created up to end_time by (created_at, request_id), PLAN_BATCH at a time.

        Under `kind` EDS or EXDS, every stage gets the deadline that
        `assign_deadlines(request, kind, sla)` would give it; `sla` is > 0.
        With `kind` None, stages get no deadline.
        """
        order = _narrow(np.argsort(self.created_at, kind="stable"))  # ties in request_id order
        order = order[: np.searchsorted(self.created_at[order], end_time, side="right")]
        for start in range(0, len(order), PLAN_BATCH):
            yield from self._build(order[start : start + PLAN_BATCH], kind, sla)

    def _build(
        self, pos: np.ndarray, kind: Optional[QueueKind], sla: SimTime
    ) -> list[ClientRequest]:
        """The requests at positions `pos`, with one tolist() per column for all of them."""
        starts = self.starts[pos]
        # pos may be as narrow as the request count allows, so pos + 1 could wrap
        sizes = self.starts[1:][pos] - starts
        # the rows of the requests, one request after another
        rows = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
        heads = zip(self.request_id[pos].tolist(), self.created_at[pos].tolist(), sizes.tolist())
        cells = zip(*(col[rows].tolist() for col in (self.called_ms, self.exetime, self.back)))
        built: list[Stage] = []  # every stage of the batch, in row order
        paths: list[SimTime] = []  # per stage, exec summed from its root
        requests = []
        for rid, created_at, size in heads:
            first = len(built)
            roots: list[Stage] = []
            crit_exec = 0
            depth = -1
            # rows come by depth; per level, the largest exec
            longest: list[SimTime] = []
            for target, exec_time, back in islice(cells, size):
                if back:
                    parent = built[-back]
                    d = parent.depth + 1
                    stage = Stage(rid, target, exec_time, d, parent.target)
                    if parent.children:
                        parent.children.append(stage)
                    else:  # leaves share the empty tuple until their first child
                        parent.children = [stage]
                    path = paths[-back] + exec_time
                else:
                    d = 0
                    stage = Stage(rid, target, exec_time, 0)
                    roots.append(stage)
                    path = exec_time
                if d != depth:
                    depth = d
                    longest.append(exec_time)
                elif exec_time > longest[-1]:
                    longest[-1] = exec_time
                if path > crit_exec:  # exec > 0, so the longest path ends at a leaf
                    crit_exec = path
                built.append(stage)
                paths.append(path)
            if kind is not None:
                deadlines = level_deadlines(created_at, sla, longest, kind)
                for stage in built[first:]:
                    stage.deadline = deadlines[stage.depth]
            requests.append(ClientRequest(rid, created_at, roots, size, crit_exec))
        return requests


class TraceColumns(ColumnView):
    """Trace rows as six columns, as wide as their values; `called_by` is -1 where it is None.

    A run appends a row as it dispatches a stage, and its rows stay in that
    order, flushed or not.
    """

    __slots__ = _fields = tuple(TRACE_HEADER)

    @classmethod
    def from_rows(cls, rows: Sequence[TraceRow]) -> TraceColumns:
        """Columns of rows that each pass the row rules."""
        cols = cls()
        for r in rows:
            cols.append(*_checked_row(astuple(r)))
        return cols

    def append(
        self,
        request_id: int,
        timestamp: SimTime,
        called_ms: int,
        exetime: SimTime,
        hops_done: int,
        called_by: Optional[int],
    ) -> None:
        called_by = -1 if called_by is None else called_by
        try:
            self.request_id.append(request_id)
            self.timestamp.append(timestamp)
            self.called_ms.append(called_ms)
            self.exetime.append(exetime)
            self.hops_done.append(hops_done)
            self.called_by.append(called_by)
        except OverflowError:
            self._append_wide((request_id, timestamp, called_ms, exetime, hops_done, called_by))
        if len(self.called_by) >= self._flush_at:
            self._flush()

    def _row(self, *values: int) -> TraceRow:
        *head, called_by = values
        return TraceRow(*head, None if called_by < 0 else called_by)


def write_trace_csv(rows: Sequence[TraceRow], fp: io.TextIOBase) -> None:
    """UTF-8 CSV, `called_by` empty for depth 0, integer microsecond times.

    Written from columns WRITE_ROWS rows at a time; other sequences of
    rows are turned into columns first. No field needs CSV quoting, so rows
    are formatted directly.
    """
    if not isinstance(rows, TraceColumns):
        rows = TraceColumns.from_rows(rows)
    fp.write(",".join(TRACE_HEADER) + "\n")
    for block in rows.blocks(WRITE_ROWS):
        *head, called_by = (col.tolist() for col in block)
        called_by = ["" if c < 0 else c for c in called_by]
        fp.write("".join(map("{},{},{},{},{},{}\n".format, *head, called_by)))


def _checked_block(block: list[list[str]]) -> Optional[list[array]]:
    """The block's rows as six columns, or None if one fails a row check.

    Fields are parsed with `int`, as `_append_records` does, and the row
    rules are applied to the whole block at once, each column at its width.
    """
    records = list(filter(None, block))  # blank records hold no row
    if set(map(len, records)) != {len(TRACE_HEADER)}:
        return None
    *head, called_by = zip(*records)
    try:
        cols = [int_column(fields) for fields in head]
        cols.append(int_column([c or -1 for c in called_by]))
    except (ValueError, OverflowError):  # not an integer, or past int64
        return None
    arrays = dict(zip(TRACE_HEADER, (np.frombuffer(c, c.typecode) for c in cols)))
    given = arrays["called_by"] != -1  # unless a -1 was given, which reads as none
    minus_one_given = called_by.count("") != len(given) - np.count_nonzero(given)
    broken = minus_one_given or any(rule(**arrays, given=given).any() for _, rule in _ROW_RULES)
    return None if broken else cols


def _append_records(cols: TraceColumns, block: list[list[str]], lineno: int) -> None:
    """Check and append a block record by record; `lineno` is its first record's line."""
    for lineno, rec in enumerate(block, start=lineno):
        if not rec:
            continue
        try:
            if len(rec) != len(TRACE_HEADER):
                raise ValueError(f"expected 6 fields, got {len(rec)}")
            *head, called_by = rec
            values = _checked_row([*map(int, head), None if called_by == "" else int(called_by)])
        except (ValueError, MalformedTrace) as e:
            raise MalformedTrace(f"line {lineno}: {e}") from e
        cols.append(*values)


def read_trace_csv(fp: io.TextIOBase) -> TraceColumns:
    """The rows of a trace CSV as columns, each row checked by the row rules.

    Records are read WRITE_ROWS at a time. A block with a bad record is read
    again record by record, so the error names the line of the first one
    (counted in CSV records, blank ones included, the header being line 1).
    A record that csv cannot split raises csv.Error naming its line.
    """
    reader = csv.reader(fp)
    try:
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise MalformedTrace(f"bad trace header: {header!r}")
        cols = TraceColumns()
        lineno = 2
        while block := list(islice(reader, WRITE_ROWS)):
            checked = _checked_block(block)
            if checked is None:
                _append_records(cols, block, lineno)
            else:
                cols.extend(checked)
            lineno += len(block)
    except csv.Error as e:  # such as a field past csv.field_size_limit()
        raise csv.Error(f"line {reader.line_num}: {e}") from None
    return cols
