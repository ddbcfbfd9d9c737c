"""The scalar samplers that `mssim.workload` replaced with chunk transforms.

Each function draws one uniform at a time and computes one sample from it
with Python floats and `math`. The tests hold the chunk transforms and the
table-driven `Picker` to these, sample for sample. The Cephes coefficients
are shared with `mssim.workload`; `test_workload.py` checks them, through
this `ndtri`, against scipy bit for bit. A stream here is a callable that
returns the next uniform, such as `RngStream(seed, name).draw`.
"""

import math
from typing import Callable, Optional, Sequence

from mssim.engine import RngStream, SimTime, round_half_up
from mssim.errors import ConfigError
from mssim.model import ClientRequest, Stage
from mssim.workload import (
    _EXP_M2, _P0, _P1, _P2, _Q0, _Q1, _Q2, _S2PI,
    ArrivalModel, DepthModel, ExecModel, ExecUnit, WorkloadModel,
)

Uniform = Callable[[], float]


def uniform_streams(seed: int) -> dict[str, Uniform]:
    """The five raw uniform streams a scalar sampled run draws from."""
    return {name: RngStream(seed, name).draw
            for name in ("arrival", "exec", "depth", "routing", "communication")}


def sample_interarrival(model: ArrivalModel, rng: Uniform) -> SimTime:
    """Exponential gap with the configured mean, rounded, floored at 1 us."""
    u = rng()
    gap = -model.mean_interarrival * math.log1p(-u)
    return max(1, round_half_up(gap))


def _horner(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^n + ... + coef[n]; 0.0 * x + coef[0] is exactly coef[0]."""
    acc = 0.0
    for c in coef:
        acc = acc * x + c
    return acc


def ndtri(y: float) -> float:
    """The z with standard normal CDF(z) = y; -inf at 0, inf at 1, nan outside [0, 1]."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    if x < 8.0:
        tail = z * _horner(z, _P1) / _horner(z, _Q1)
    else:
        tail = z * _horner(z, _P2) / _horner(z, _Q2)
    x = x - math.log(x) / x - tail
    return x if upper else -x


def sample_exec_time(model: ExecModel, rng: Uniform) -> SimTime:
    """exp(N(mu, sigma)) scaled by unit, rounded, floored at 1 us."""
    z = ndtri(rng())
    x = math.exp(model.mu + model.sigma * z)
    if model.unit is ExecUnit.MILLIS:
        x *= 1000.0
    return max(1, round_half_up(x))


def sample_depth(model: DepthModel, rng: Uniform) -> int:
    u = rng()
    acc = 0.0
    for depth, p in model.outcomes:
        acc += p
        if u < acc:
            return depth
    return model.outcomes[-1][0]


def _sample_categorical(weights: Sequence[float], rng: Uniform) -> int:
    # the same left-to-right float sum as `acc` below; sum() of floats is
    # compensated from Python 3.12 on and would move draws between versions
    total = 0.0
    for w in weights:
        total += w
    u = rng() * total
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
    weights: Sequence[float], k: int, rng: Uniform, exclude: Optional[int] = None
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
    streams: dict[str, Uniform],
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

    roots = _sample_distinct(
        wl.routing.call_probabilities, wl.routing.fanout, streams["routing"]
    )
    exec_stream = streams["exec"]
    comm_stream = streams["communication"]
    comm = wl.communication
    root_stages: list[Stage] = []
    stages = crit_exec = 0
    # depth-first preorder, the order in which the streams are drawn; an
    # entry is (target, depth, caller, list to append the stage to, exec above)
    stack = [(t, 0, None, root_stages, 0) for t in reversed(roots)]
    while stack:
        target, d, called_by, siblings, above = stack.pop()
        exec_time = sample_exec_time(wl.exec, exec_stream)
        stages += 1
        path = above + exec_time
        children: Sequence[Stage] = ()  # shared by every leaf
        if d < depth:
            children = []
            picks = _sample_distinct(
                comm.comm_probabilities, comm.fanout, comm_stream, exclude=target
            )
            stack.extend((c, d + 1, target, children, path) for c in reversed(picks))
        elif path > crit_exec:  # every path reaches the sampled depth
            crit_exec = path
        siblings.append(Stage(request_id, target, exec_time, d, called_by, children))
    return ClientRequest(
        request_id=request_id,
        created_at=now,
        root_stages=root_stages,
        stages=stages,
        crit_exec=crit_exec,
    )
