#!/usr/bin/env python3
"""Export a workload trace, replay it, and check the runs are identical.

The trace CSV stores one row per microservice invocation. Replaying it
feeds the exact same call trees through the scheduler, bypassing every
random sampler, so the replayed run reproduces the original byte for byte.
"""

import io
import math

from mssim import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    SimConfig,
    replay_trace,
    run_simulation,
    write_requests_csv,
    write_trace_csv,
)

cfg = SimConfig(
    end_time=3_000_000,
    seed=9,
    arrival=ArrivalModel(2000),
    exec_model=ExecModel(mu=math.log(500), sigma=0.8, unit=ExecUnit.MICROS),
    depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
    routing=RoutingModel(call_probabilities=(0.5, 0.5)),
    communication=CommunicationModel(comm_probabilities=(0.5, 0.5)),
    microservices=(2, 2),
    utilization_interval=1_000_000,
    imbalance_interval=1_000_000,
)

original = run_simulation(cfg, collect_trace=True)
print(f"original run : {original.report.client_requests} client requests, "
      f"{len(original.trace_rows)} trace rows")

requests = replay_trace(original.trace_rows)
replayed = run_simulation(cfg, replay=requests, collect_trace=True)
print(f"replayed run : {replayed.report.client_requests} client requests")


def csv_of(rows):
    buf = io.StringIO()
    write_trace_csv(rows, buf)
    return buf.getvalue()


def requests_csv(result):
    buf = io.StringIO()
    write_requests_csv((result.client_records, result.stage_records), buf)
    return buf.getvalue()


print("per-request CSV identical:", requests_csv(replayed) == requests_csv(original))
print("re-exported trace identical:", csv_of(replayed.trace_rows) == csv_of(original.trace_rows))
