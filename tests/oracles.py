"""Independent validation oracles, sharing no code with the simulator.

The closed-form M/G/1 mean wait (Pollaczek-Khinchine), a brute-force
single-instance scheduler that time-steps at 1 us resolution, the
Kolmogorov distance between two samples, the exactly rounded mean, and a
structural check of a call tree. Nothing here imports `mssim`; `test_oracle.py` enforces that. Queue
kinds are the plain strings of the config file, and call trees are read
only through their attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

QUEUE_KINDS = ("fcfs", "shortest_first", "fair_share", "eds", "exds")


def mg1_fcfs_mean_wait(lam: float, es: float, es2: float) -> float:
    """Mean FCFS queueing delay: lambda * E[S^2] / (2 * (1 - rho)).

    `lam` is the arrival rate in 1/us, `es` and `es2` the first two moments
    of the service time in us and us^2.
    """
    rho = lam * es
    if rho >= 1.0:
        raise ValueError(f"unstable system: rho = {rho:.4f} >= 1")
    return lam * es2 / (2.0 * (1.0 - rho))


@dataclass(frozen=True)
class OracleStage:
    """One stage of a brute-force scenario; request_id doubles as the tie id."""

    arrival: int
    exec_time: int
    request_id: int
    deadline: Optional[int] = None


def brute_force_schedule(
    stages: Sequence[OracleStage], kind: str, quantum: int = 500
) -> list[tuple[int, int]]:
    """Per-stage (first start, completion) on a single instance.

    `kind` is one of QUEUE_KINDS; `quantum` is the fair-share slice length.
    Direct 1 us time-stepping, independent of the event engine. At each
    microsecond: admit arrivals (starting immediately when idle), then end
    a finished slice, then pick the next stage per policy.
    """
    if kind not in QUEUE_KINDS:
        raise ValueError(f"unknown queue kind {kind!r}")
    n = len(stages)
    assert n <= 100, "oracle is for small scenarios only"
    if n == 0:
        return []

    remaining = [s.exec_time for s in stages]
    order = sorted(range(n), key=lambda i: (stages[i].arrival, i))
    queue: list[int] = []  # indices, insertion order
    first_start: list[Optional[int]] = [None] * n
    completion: list[Optional[int]] = [None] * n
    fair_share = kind == "fair_share"

    def pick() -> int:
        if fair_share:
            pos = 0
        elif kind == "fcfs":
            pos = min(
                range(len(queue)),
                key=lambda j: (stages[queue[j]].arrival, stages[queue[j]].request_id, j),
            )
        elif kind == "shortest_first":
            pos = min(
                range(len(queue)),
                key=lambda j: (
                    remaining[queue[j]],
                    stages[queue[j]].arrival,
                    stages[queue[j]].request_id,
                    j,
                ),
            )
        else:  # early deadline
            pos = min(
                range(len(queue)),
                key=lambda j: (
                    stages[queue[j]].deadline,
                    stages[queue[j]].arrival,
                    stages[queue[j]].request_id,
                    j,
                ),
            )
        return queue.pop(pos)

    def start(idx: int, t: int) -> int:
        if first_start[idx] is None:
            first_start[idx] = t
        return min(remaining[idx], quantum) if fair_share else remaining[idx]

    t = 0
    next_i = 0
    running: Optional[int] = None
    slice_left = 0
    done = 0
    while done < n:
        # admissions; an idle instance starts the newcomer immediately
        while next_i < n and stages[order[next_i]].arrival == t:
            queue.append(order[next_i])
            next_i += 1
            if running is None:
                running = pick()
                slice_left = start(running, t)
        # slice completion
        if running is not None and slice_left == 0:
            if remaining[running] == 0:
                completion[running] = t
                done += 1
            else:
                queue.append(running)  # fair-share requeue at the tail
            running = None
        if running is None and queue:
            running = pick()
            slice_left = start(running, t)
        if done == n:
            break
        t += 1
        if running is not None:
            remaining[running] -= 1
            slice_left -= 1

    return [(first_start[i], completion[i]) for i in range(n)]  # type: ignore[misc]


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Kolmogorov distance between two empirical distributions."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks distance of empty sample")
    xs = np.concatenate([a, b])
    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size
    return float(np.abs(fa - fb).max())


def exact_mean(values: Sequence[float]) -> float:
    """The exact sum of `values` rounded once to a double, over their count."""
    return float(sum(map(Fraction, values))) / len(values)


def validate_tree(req: Any) -> None:
    """Reject call trees violating the depth / self-call / caller invariants.

    Reads `request_id` and `root_stages` of the request, and
    `target`, `exec_time`, `depth`, `called_by` and `children` of each stage.
    """
    if not req.root_stages:
        raise ValueError(f"request {req.request_id}: empty call tree")
    stack: list[tuple[Any, Any]] = [(root, None) for root in reversed(req.root_stages)]
    while stack:
        st, parent = stack.pop()
        if st.exec_time <= 0:
            raise ValueError(f"request {req.request_id}: exec_time <= 0")
        if parent is None:
            if st.depth != 0 or st.called_by is not None:
                raise ValueError(
                    f"request {req.request_id}: root stage must have depth 0 and no caller"
                )
        else:
            if st.depth != parent.depth + 1:
                raise ValueError(
                    f"request {req.request_id}: child depth {st.depth} != parent depth + 1"
                )
            if st.called_by != parent.target:
                raise ValueError(
                    f"request {req.request_id}: called_by does not match parent target"
                )
            if st.target == parent.target:
                raise ValueError(
                    f"request {req.request_id}: microservice {st.target} calls itself"
                )
        stack.extend((child, st) for child in reversed(st.children))
