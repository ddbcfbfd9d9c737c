#!/usr/bin/env python3
"""Compare the five queue ordering policies on one saturated workload.

Four microservices with (4, 2, 1, 1) instances share a heavy-tailed
lognormal execution-time distribution sized so the busiest microservice
runs near 0.9 offered load. The same seed is used for every policy, so
the arrival pattern and call trees are identical across runs.
"""

import math

from mssim import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    QueueKind,
    QueuePolicy,
    RoutingModel,
    SimConfig,
    percentile,
    run_simulation,
)

sigma = 2.5
mu = math.log(0.9 / 2.908e-4) - sigma**2 / 2

# fair share uses the default 500 us quantum
policies = {kind.value: QueuePolicy(kind) for kind in QueueKind}

print(f"{'policy':16s} {'requests':>8s} {'p50':>10s} {'p99':>12s}")
for name, policy in policies.items():
    cfg = SimConfig(
        end_time=10_000_000,
        seed=1,
        arrival=ArrivalModel(1066),
        exec_model=ExecModel(mu=mu, sigma=sigma, unit=ExecUnit.MICROS),
        depth=DepthModel(outcomes=((0, 0.5), (2, 0.5))),
        routing=RoutingModel(call_probabilities=(0.62, 0.18, 0.08, 0.12)),
        communication=CommunicationModel(comm_probabilities=(0.62, 0.18, 0.08, 0.12)),
        queue_policy=policy,
        microservices=(4, 2, 1, 1),
        utilization_interval=5_000_000,
        imbalance_interval=1_000_000,
    )
    result = run_simulation(cfg)
    slow = [r.slowdown for r in result.client_records]
    print(f"{name:16s} {len(slow):8d} {percentile(slow, 0.5):10.2f} "
          f"{percentile(slow, 0.99):12.1f}")
