"""Checks of one run's artifacts against computations made apart from mssim.

Nothing here imports mssim. The checks read the run's config, report.json,
requests.csv and the trace CSV the run wrote, and recompute what those must
satisfy: the microservice of every stage (by joining stage rows to trace
rows), busy periods of the single-instance microservices by the Lindley
recursion, client completions and critical paths, and the slowdown summary.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

from workloads import TRACE_HEADER

EPS = 2.0**-52


class CheckFailed(Exception):
    pass


def need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Row(NamedTuple):
    """One requests.csv row; `arrival` is creation (client) or arrival at the instance (stage)."""

    request_id: int
    arrival: int
    completed: int
    exec: int
    slowdown: float


class TraceRow(NamedTuple):
    request_id: int
    timestamp: int
    ms: int
    exec: int
    hops: int
    called_by: Optional[int]


def read_requests(path: Path) -> tuple[dict[int, Row], list[Row]]:
    """Client rows by request id, and stage rows; checks each row's own identities."""
    clients: dict[int, Row] = {}
    stages: list[Row] = []
    with open(path, newline="", encoding="utf-8") as fp:
        reader = csv.reader(fp)
        need(next(reader) == ["request_id", "scope", "created_at", "completed_at",
                              "total_us", "exec_us", "wait_us", "slowdown"], "requests.csv header")
        for rid, scope, created, completed, total, exe, wait, sd in reader:
            row = Row(int(rid), int(created), int(completed), int(exe), float(sd))
            need(row.exec > 0, f"request {rid}: exec {exe} <= 0")
            need(int(total) == row.completed - row.arrival, f"request {rid}: total")
            need(int(wait) == int(total) - row.exec, f"request {rid}: wait")
            need(int(wait) >= 0, f"request {rid}: negative wait")
            need(row.slowdown == int(total) / row.exec, f"request {rid}: slowdown")
            if scope == "client":
                need(row.request_id not in clients, f"request {rid}: two client rows")
                clients[row.request_id] = row
            else:
                need(scope == "stage", f"request {rid}: scope {scope!r}")
                stages.append(row)
    return clients, stages


def read_trace(path: Path) -> list[TraceRow]:
    with open(path, newline="", encoding="utf-8") as fp:
        reader = csv.reader(fp)
        need(next(reader) == TRACE_HEADER, "trace header")
        return [
            TraceRow(int(r), int(t), int(m), int(e), int(h), None if c == "" else int(c))
            for r, t, m, e, h, c in reader
        ]


def join_stages(stages: list[Row], trace: list[TraceRow]) -> list[tuple[Row, TraceRow]]:
    """Pair each stage row with its trace row on (request id, arrival, exec)."""
    by_key = {(t.request_id, t.timestamp, t.exec): t for t in trace}
    need(len(by_key) == len(trace), "trace rows do not have unique join keys")
    need(len(stages) == len(trace), f"{len(stages)} stage rows but {len(trace)} trace rows")
    pairs = []
    for st in stages:
        t = by_key.pop((st.request_id, st.arrival, st.exec), None)
        need(t is not None, f"request {st.request_id}: stage at {st.arrival} has no trace row")
        pairs.append((st, t))
    return pairs


def sample_windows(interval: int, end: int) -> list[tuple[int, int]]:
    """Sampling windows: every `interval` from 0, the last one cut at `end`."""
    edges = list(range(0, end, interval)) + [end]
    return list(zip(edges, edges[1:]))


def check_single_instance(ms: int, jobs: list[tuple[int, int, int]], fcfs: bool,
                          windows: list[tuple[int, int]], reported_util: float) -> None:
    """jobs: (arrival, completion, exec) of every stage the one instance of ms served."""
    jobs.sort()
    # busy periods from arrivals and execs alone; they do not depend on the order of service
    periods: list[list[int]] = []  # [start, end, latest completion]
    for a, c, e in jobs:
        need(c >= a + e, f"ms {ms}: stage arriving {a} completes {c} before arrival + exec")
        if periods and a <= periods[-1][1]:
            periods[-1][1] += e
            periods[-1][2] = max(periods[-1][2], c)
        else:
            periods.append([a, a + e, c])
    for start, end, last in periods:
        need(last == end, f"ms {ms}: busy period [{start}, {end}] ends with completion {last}")
    if fcfs:
        # Lindley recursion in arrival order; equal arrivals in their served order
        free = 0
        for a, c, e in jobs:
            free = max(free, a) + e
            need(free == c, f"ms {ms}: FCFS completion {c} != Lindley {free} (arrival {a})")
    utils = []
    for lo, hi in windows:
        busy = sum(max(0, min(end, hi) - max(start, lo)) for start, end, _ in periods)
        utils.append(busy / (hi - lo))
    expected = math.fsum(utils) / len(utils)
    # the report sums the window figures in another order: allow that rounding only
    need(abs(reported_util - expected) <= len(utils) * EPS * expected,
         f"ms {ms}: utilization {reported_util!r} != recomputed {expected!r}")


def critical_path(rows: list[TraceRow]) -> int:
    """Longest root-to-leaf exec sum of one request's call tree, linked by called_by."""
    by_hop: dict[int, list[TraceRow]] = defaultdict(list)
    for r in rows:
        by_hop[r.hops].append(r)
    path: dict[TraceRow, int] = {}
    for hop in sorted(by_hop):
        for r in by_hop[hop]:
            if hop == 0:
                path[r] = r.exec
                continue
            callers = [p for p in by_hop.get(hop - 1, []) if p.ms == r.called_by]
            need(len(callers) == 1, f"request {r.request_id}: no unique caller at hop {hop}")
            path[r] = path[callers[0]] + r.exec
    return max(path.values())


def nearest_rank(ordered: list[float], num: int, den: int) -> float:
    """The value at rank ceil(n * num / den), in exact integer arithmetic."""
    return ordered[-(-len(ordered) * num // den) - 1]


def check_summary(scope: str, values: list[float], summary: dict) -> None:
    ordered = sorted(values)
    need(summary["p50"] == nearest_rank(ordered, 1, 2), f"{scope} p50")
    need(summary["p99"] == nearest_rank(ordered, 99, 100), f"{scope} p99")
    mean = math.fsum(values) / len(values)
    # numpy's pairwise sum of n positive values is off by at most about
    # log2(n) units of 2**-52, relative to the sum
    tol = (math.ceil(math.log2(len(values))) + 1) * EPS * mean
    need(abs(summary["mean"] - mean) <= tol, f"{scope} mean {summary['mean']!r} != {mean!r}")


def check_run(cfg: dict, out_dir: Path, trace_path: Path,
              input_trace: Optional[list[tuple]] = None) -> dict[str, int]:
    """Run every check on one run's artifacts; returns what was checked, by count."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    clients, stages = read_requests(out_dir / "requests.csv")
    trace = read_trace(trace_path)
    need(report["client_requests"] == len(clients), "report client_requests")
    need(report["stage_requests"] == len(stages), "report stage_requests")

    pairs = join_stages(stages, trace)
    trace_by_request: dict[int, list[TraceRow]] = defaultdict(list)
    for t in trace:
        trace_by_request[t.request_id].append(t)
    stages_by_request: dict[int, list[tuple[Row, TraceRow]]] = defaultdict(list)
    jobs_by_ms: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for st, t in pairs:
        stages_by_request[st.request_id].append((st, t))
        jobs_by_ms[t.ms].append((st.arrival, st.completed, st.exec))

    queue = cfg["queue_policy"]
    fcfs = (queue if isinstance(queue, str) else queue.get("kind", "fcfs")) == "fcfs"
    windows = sample_windows(cfg["utilization_interval"], cfg["end_time"])
    single = [ms for ms, count in enumerate(cfg["microservices"]) if count == 1]
    for ms in single:
        check_single_instance(ms, jobs_by_ms[ms], fcfs, windows, report["utilization"][str(ms)])

    need(set(clients) == set(trace_by_request), "client rows and trace requests differ")
    for rid, client in clients.items():
        rows = trace_by_request[rid]
        need(client.completed == max(st.completed for st, _ in stages_by_request[rid]),
             f"request {rid}: client completion is not its latest stage's")
        need(client.arrival == min(t.timestamp for t in rows), f"request {rid}: creation time")
        need(client.exec == critical_path(rows), f"request {rid}: critical path exec")

    check_summary("client", [c.slowdown for c in clients.values()], report["slowdown"]["client"])
    check_summary("stage", [s.slowdown for s in stages], report["slowdown"]["stage"])

    if input_trace is not None:
        given: dict[int, list[tuple]] = defaultdict(list)
        created: dict[int, int] = {}
        for rid, ts, ms, exe, hop, caller in input_trace:
            given[rid].append((hop, ms, caller, exe))
            created[rid] = ts
        need(set(given) == set(trace_by_request), "replayed requests differ from the input")
        for rid, rows in given.items():
            need(sorted(rows) == sorted((t.hops, t.ms, t.called_by, t.exec)
                                        for t in trace_by_request[rid]),
                 f"request {rid}: replayed call tree differs from the input")
            need(sorted(r[3] for r in rows) == sorted(st.exec for st, _ in stages_by_request[rid]),
                 f"request {rid}: stage execs differ from the input")
            need(clients[rid].arrival == created[rid], f"request {rid}: creation time differs from the input")
    return {"clients": len(clients), "stages": len(stages),
            "single_instance_stages": sum(len(jobs_by_ms[ms]) for ms in single)}
