"""The benchmark's per-layer tracer (`bench/run.py --trace 1`) still installs.

`bench/tracer.py` wraps mssim's functions and methods by name from outside
the package, so renaming or removing one of them breaks the traced run at
start-up. The run happens in a subprocess, which keeps the tracer's
monkeypatching out of the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
bench, src, *argv = sys.argv[1:]
sys.path[:0] = [bench, src]
import tracer
spans = tracer.Tracer()
tracer.install(spans)
from mssim.cli import cli_main
rc = cli_main(argv)
print(json.dumps({"rc": rc, "counts": spans.by_name()[1], "counters": spans.counters}))
"""


# run id -> (queue policy, load balancer, spans the run must record)
RUNS = {
    "fs-greedy": ({"kind": "fair_share", "quantum": 500}, "greedy",
                  ("engine.loop", "simulation.event", "engine.schedule", "instance.enqueue",
                   "instance.finish_slice", "gateway.select", "workload.build",
                   "workload.interarrival")),
    "exds-lc": ("exds", "least_connection", ("instance.deadline", "metrics.record")),
    # round robin is spanned only through `Registry.select_round_robin`
    "fcfs-rr": ("fcfs", "round_robin", ("gateway.select", "workload.build")),
}


def write_config(tmp_path, queue_policy, lb_policy):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "end_time": "50ms",
        "seed": 1,
        "arrival": {"mean_interarrival": 1066},
        "exec": {"mu": 4.912514296647084, "sigma": 2.5, "unit": "us"},
        "depth": {"0": 0.5, "2": 0.5},
        "microservices": [4, 2, 1, 1],
        "queue_policy": queue_policy,
        "lb_policy": lb_policy,
        "drain": True,
    }), encoding="utf-8")
    return str(config)


def traced_run(*argv):
    """Run the CLI under the tracer in a subprocess; its span counts and counters."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    return result


@pytest.mark.parametrize("queue_policy,lb_policy,spans", RUNS.values(), ids=RUNS.keys())
def test_tracer_installs_and_records_every_layer(tmp_path, queue_policy, lb_policy, spans):
    config = write_config(tmp_path, queue_policy, lb_policy)
    result = traced_run("--config", config, "--out", str(tmp_path / "out"))
    for span in spans:
        assert result["counts"].get(span, 0) > 0, span


def test_tracer_records_trace_read_and_replay(tmp_path):
    config = write_config(tmp_path, "exds", "least_connection")
    trace = tmp_path / "trace.csv"
    written = traced_run("--config", config, "--out", str(tmp_path / "o1"), "--trace-out", str(trace))
    assert written["counts"].get("workload.trace_write", 0) == 1
    rows = len(trace.read_text(encoding="utf-8").splitlines()) - 1
    assert rows > 0
    result = traced_run("--config", config, "--out", str(tmp_path / "o2"), "--trace-in", str(trace))
    assert result["counts"].get("workload.trace_read", 0) == 1
    assert result["counts"].get("workload.trace_replay", 0) == 1
    assert result["counters"].get("workload.trace_rows") == rows
