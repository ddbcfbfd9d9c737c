"""mssim benchmark: host time and memory of whole simulations, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in bench/workloads.py, or `all` to run each in
turn. Every simulation is a fresh process running mssim's command-line entry
point on the checkout's `src/`, so interpreter start, imports and artifact
writing are measured as a user meets them. Per invocation the benchmark:

1. runs one untimed simulation that also writes the workload trace, and
   checks its artifacts with bench/checks.py; for the replay workload it
   replays the trace that run wrote and requires identical artifacts;
2. with --trace 0, repeats the timed simulation for S seconds (at least
   three times), then runs one tracemalloc pass; with --trace 1, alternates
   an untraced and a traced run for S seconds (at least one pair);
3. requires every repeat's artifacts to hash the same as the first run's,
   and prints the metrics, the digests, and as its last line one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("stages_per_s", "stages/s"),
    ("peak_rss_mb", "MiB"),
    ("heap_peak_mb", "MiB"),
]
LAYER_UNITS = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
MIN_REPEATS = 3
SIM_TIMEOUT_S = 60
ARTIFACTS = ("report.json", "requests.csv", "trace.csv")


class Failed(Exception):
    """A simulation that raised, exited non-zero, or failed a check."""


class Workload:
    """One workload's runs within an invocation, and their tally."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.cfg = workloads.load_config(name)
        self.replays = workloads.WORKLOADS[name]
        self.work = OUT / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.args = ["--config", str(workloads.config_path(name)), "--seed", str(seed)]
        self.input_rows: Optional[list[tuple]] = None
        if self.replays:
            trace_in = self.work / "input.csv"
            self.input_rows = workloads.write_input_trace(self.cfg, seed, trace_in)
            self.args += ["--trace-in", str(trace_in)]
        self.attempted = 0
        self.failed = 0
        self.digests: Optional[dict[str, str]] = None

    def simulate(self, tag: str, mode: str = "timed", write_trace: bool = False,
                 keep: bool = False, trace_in: Optional[Path] = None) -> tuple[dict, Path]:
        """One simulation in a fresh process; returns its measurements and output dir."""
        self.attempted += 1
        out = self.work / f"{tag}-{self.attempted}"
        argv = list(self.args) + ["--out", str(out)]
        if trace_in is not None:
            argv[argv.index("--trace-in") + 1] = str(trace_in)
        if write_trace or self.replays:
            argv += ["--trace-out", str(out / "trace.csv")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(self.work / "spans.npz"), "--", *argv]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=SIM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failed += 1
            raise Failed(f"{self.name}: {tag} simulation timed out after {SIM_TIMEOUT_S} s")
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = None
        if proc.returncode != 0 or res is None or res["rc"] != 0:
            self.failed += 1
            raise Failed(f"{self.name}: {tag} simulation failed:\n{proc.stderr.strip()}")
        if Path(res["mssim"]) != SRC / "mssim":
            self.failed += 1
            raise Failed(f"{self.name}: imported mssim from {res['mssim']}, not {SRC / 'mssim'}")
        res["spawned"] = spawned
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS if (out / name).exists()}
        if self.digests is None:
            self.digests = digests
        elif any(self.digests[k] != v for k, v in digests.items()):
            self.failed += 1
            raise Failed(f"{self.name}: {tag} run's artifacts differ from the first run's:"
                         f" {digests} vs {self.digests}")
        if not keep:
            shutil.rmtree(out)
        return res, out

    def check(self) -> None:
        """The first run: writes the trace, then its artifacts are checked (and replayed)."""
        _, out = self.simulate("check", write_trace=True, keep=True)
        try:
            counted = checks.check_run(self.cfg, out, out / "trace.csv", self.input_rows)
        except checks.CheckFailed as e:
            self.failed += 1
            raise Failed(f"{self.name}: check failed: {e}") from e
        print(f"{self.name}: checks passed on {counted}")
        if self.replays:
            # the written trace must replay to the same artifacts, byte for byte
            self.simulate("roundtrip", trace_in=out / "trace.csv")
            print(f"{self.name}: replay of the written trace reproduced every artifact")


def measure(wl: Workload, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over timed repeats, plus one tracemalloc pass."""
    runs = []
    started = time.perf_counter()
    while len(runs) < MIN_REPEATS or time.perf_counter() - started < seconds:
        runs.append(wl.simulate("timed")[0])
    memory, _ = wl.simulate("memory", "memory")
    return {
        "wall_s": median([r["end"] - r["spawned"] for r in runs]),
        "setup_s": median([r["run_start"] - r["spawned"] for r in runs]),
        "stages_per_s": median([r["stage_requests"] / (r["run_end"] - r["run_start"]) for r in runs]),
        "peak_rss_mb": median([r["peak_rss_kib"] / 1024 for r in runs]),
        "heap_peak_mb": memory["heap_peak_bytes"] / 2**20,
    }


def measure_layers(wl: Workload, seconds: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced runs, each paired with an untraced one."""
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(wl.simulate("timed")[0])
        traced.append(wl.simulate("traced", "traced")[0])
    layers = {name: median([r["layers"][name] for r in traced]) for name, _ in LAYER_METRICS}
    layers["trace.overhead_s"] = (median([r["end"] - r["spawned"] for r in traced])
                                  - median([r["end"] - r["spawned"] for r in plain]))
    (wl.work / "layers.json").write_text(json.dumps(layers, indent=2) + "\n", encoding="utf-8")
    return layers


def run_workload(wl: Workload, seconds: float, trace: bool) -> dict[str, dict]:
    name = wl.name
    wl.check()
    if trace:
        values, units = measure_layers(wl, seconds), LAYER_UNITS
    else:
        values, units = measure(wl, seconds), dict(END_TO_END)
    for key, value in values.items():
        print(f"{name}  {key:34s} {value:>16.6f} {units[key]}")
    print(f"{name}  simulations attempted {wl.attempted}, failed {wl.failed}")
    for artifact, digest in sorted(wl.digests.items()):
        print(f"{name}  sha256 {artifact:12s} {digest}")
    (wl.work / "digests.json").write_text(json.dumps(wl.digests, indent=2) + "\n", encoding="utf-8")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "mssim" / "__init__.py").is_file():
        print(f"error: no mssim sources at {SRC / 'mssim'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        wl = Workload(name, args.seed)
        try:
            values = run_workload(wl, args.seconds, bool(args.trace))
        except Failed as e:
            print(f"error: {e}", file=sys.stderr)
            print(f"error: simulations attempted {attempted + wl.attempted}, "
                  f"failed {failed + wl.failed}", file=sys.stderr)
            return 1
        attempted += wl.attempted
        failed += wl.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
