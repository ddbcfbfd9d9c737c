"""The benchmark's workloads and the generator of the replay input trace.

Each workload is an mssim JSON config under `bench/configs/`. The replay
workload's input is a trace CSV that `write_input_trace` draws with numpy
from the same model parameters as the config; it never calls mssim's
samplers, so a change to them cannot change what is replayed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# name -> whether the run replays a generated trace (and writes --trace-out)
WORKLOADS = {
    "exp-fcfs-rr": False,
    "exp-fs-greedy": False,
    "replay-exds-lc": True,
}

# mssim's trace CSV columns
TRACE_HEADER = ["request_id", "timestamp", "called_ms", "exetime", "hops_done", "called_by"]


def config_path(name: str) -> Path:
    return CONFIG_DIR / f"{name}.json"


def load_config(name: str) -> dict:
    return json.loads(config_path(name).read_text(encoding="utf-8"))


def _round_us(x: np.ndarray) -> np.ndarray:
    """Half-up rounding to whole microseconds with a floor of 1 us."""
    return np.maximum(1, np.floor(x + 0.5)).astype(np.int64)


def _pick(rng: np.random.Generator, weights: np.ndarray, exclude: np.ndarray | None, n: int) -> np.ndarray:
    """n weight-proportional microservice ids, each avoiding exclude[i] if given."""
    if exclude is None:
        return rng.choice(len(weights), size=n, p=weights / weights.sum())
    out = np.empty(n, dtype=np.int64)
    for ms in range(len(weights)):
        rows = np.flatnonzero(exclude == ms)
        w = weights.copy()
        w[ms] = 0.0
        out[rows] = rng.choice(len(weights), size=rows.size, p=w / w.sum())
    return out


def generate_trace(cfg: dict, seed: int) -> list[tuple[int, int, int, int, int, int | None]]:
    """Trace rows (request_id, timestamp, called_ms, exetime, hops_done, called_by).

    Poisson arrivals up to `end_time`; each request is a call chain whose
    depth follows `depth`, with the root drawn from the routing weights and
    each callee from the communication weights without its caller. Every
    row of a request carries the request's arrival time.
    """
    for model in ("routing", "communication"):
        if cfg[model].get("fanout", 1) != 1:
            raise ValueError(f"{model}.fanout must be 1 for the trace generator")
    if cfg["exec"]["unit"] != "us":
        raise ValueError("exec.unit must be 'us' for the trace generator")
    rng = np.random.default_rng(seed)
    end = cfg["end_time"]
    gap = cfg["arrival"]["mean_interarrival"]

    arrivals = np.empty(0, dtype=np.int64)
    last = 0
    while last <= end:
        gaps = _round_us(rng.exponential(gap, size=int(end / gap) + 1000))
        arrivals = np.concatenate([arrivals, last + np.cumsum(gaps)])
        last = int(arrivals[-1])
    arrivals = arrivals[arrivals <= end]
    n = arrivals.size

    depth_values = np.array([int(k) for k in cfg["depth"]])
    depth_probs = np.array([float(v) for v in cfg["depth"].values()])
    depths = rng.choice(depth_values, size=n, p=depth_probs / depth_probs.sum())

    mu, sigma = cfg["exec"]["mu"], cfg["exec"]["sigma"]
    routing = np.array(cfg["routing"]["call_probabilities"], dtype=float)
    comm = np.array(cfg["communication"]["comm_probabilities"], dtype=float)
    # levels[h] = (request ids reaching hop h, their microservice, their exec)
    levels = []
    ids = np.arange(n)
    ms = _pick(rng, routing, None, n)
    for hop in range(int(depths.max()) + 1 if n else 0):
        if hop:
            keep = depths[ids] >= hop
            ids, caller = ids[keep], ms[keep]
            ms = _pick(rng, comm, caller, ids.size)
        levels.append((ids, ms, _round_us(rng.lognormal(mu, sigma, size=ids.size))))

    rows: list[list] = [[] for _ in range(n)]
    caller_of = np.full(n, -1, dtype=np.int64)
    for hop, (ids, ms, exe) in enumerate(levels):
        for rid, m, e, c in zip(ids.tolist(), ms.tolist(), exe.tolist(), caller_of[ids].tolist()):
            rows[rid].append((rid, int(arrivals[rid]), m, e, hop, None if hop == 0 else c))
        caller_of[ids] = ms
    return [row for request in rows for row in request]


def write_input_trace(cfg: dict, seed: int, path: Path) -> list[tuple]:
    """Write the generated trace in mssim's trace CSV format; returns the rows."""
    rows = generate_trace(cfg, seed)
    lines = [",".join(TRACE_HEADER)]
    for rid, ts, ms, exe, hop, caller in rows:
        lines.append(f"{rid},{ts},{ms},{exe},{hop},{'' if caller is None else caller}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows
