"""Python calls into mssim per simulated stage, a cost counter that repeats exactly.

Run times on a shared machine spread too widely to resolve a change of a
few percent, but the calls a run makes are a function of its config and
seed alone. `sys.setprofile` counts every call into a function defined in
the `mssim` package while `Simulation.run` runs, generator resumptions
included; calls into the standard library, numpy, C functions and
generated code such as dataclass `__init__`s are not counted. Each gate is
about 2% above the count measured on Python 3.11 when it was set; a
change that adds calls to the per-stage path fails it, and a change that
removes some should lower it.
"""

import sys
from pathlib import Path

import pytest

import mssim
from mssim.config import load_config
from mssim.simulation import Simulation, run_simulation
from mssim.workload import replay_trace

CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"
PACKAGE = Path(mssim.__file__).resolve().parent

# benchmark config -> the most calls per stage allowed (measured: 15.640, 19.562 and 16.078)
GATES = {"exp-fcfs-rr": 15.95, "exp-fs-greedy": 19.95, "replay-exds-lc": 16.40}


def calls_per_stage(name: str) -> float:
    """Calls per stage of a 2 s run of the config at seed 1.

    A replay workload replays the trace of a sampled run of its config and
    records a trace of its own, as the benchmark's replay writes one; only
    the replay is counted.
    """
    cfg = load_config(CONFIGS / f"{name}.json")
    cfg.seed = 1
    cfg.end_time = 2_000_000  # 2 s
    if name.startswith("replay-"):
        plan = replay_trace(run_simulation(cfg, collect_trace=True).trace_rows)
        sim = Simulation(cfg, replay=plan, collect_trace=True)
    else:
        sim = Simulation(cfg)
    code_in_package: dict = {}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            inside = code_in_package.get(code)
            if inside is None:
                inside = Path(code.co_filename).resolve().parent == PACKAGE
                code_in_package[code] = inside
            calls += inside

    sys.setprofile(count)
    try:
        result = sim.run()
    finally:
        sys.setprofile(None)
    return calls / result.report.stage_requests


@pytest.mark.parametrize("name", GATES)
def test_python_calls_per_stage_stay_under_the_gate(name):
    per_stage = calls_per_stage(name)
    # every stage is dispatched and completed through mssim's own functions
    assert 2 <= per_stage <= GATES[name], f"{name}: {per_stage:.3f} calls per stage"
