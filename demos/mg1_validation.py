#!/usr/bin/env python3
"""Validate the simulator against the closed-form M/G/1 mean wait.

One microservice, one instance, FCFS, Poisson arrivals with a 2000 us mean
gap and a fixed 1000 us service time. At half load the Pollaczek-Khinchine
formula predicts a 500 us mean queueing delay.
"""

import math

import numpy as np

from mssim import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    SimConfig,
    run_simulation,
)

gap, exe = 2000, 1000
horizon = 50_000 * gap  # roughly 50k requests

cfg = SimConfig(
    end_time=horizon,
    seed=42,
    arrival=ArrivalModel(gap),
    exec_model=ExecModel(mu=math.log(exe), sigma=0.0, unit=ExecUnit.MICROS),
    depth=DepthModel(outcomes=((0, 1.0),)),
    routing=RoutingModel(call_probabilities=(1.0,)),
    communication=CommunicationModel(comm_probabilities=(1.0,)),
    microservices=(1,),
    utilization_interval=horizon,
    imbalance_interval=horizon,
)

result = run_simulation(cfg)
waits = [r.wait for r in result.stage_records]

# Pollaczek-Khinchine: W = lambda E[S^2] / (2 (1 - rho)), with rho = lambda E[S]
lam, es, es2 = 1 / gap, exe, float(exe) ** 2
predicted = lam * es2 / (2 * (1 - lam * es))
observed = float(np.mean(waits))

print(f"requests served : {len(waits)}")
print(f"predicted wait  : {predicted:8.1f} us")
print(f"observed wait   : {observed:8.1f} us")
print(f"relative error  : {abs(observed - predicted) / predicted:8.2%}")
