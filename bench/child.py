"""Run one mssim simulation through its command-line entry point.

    python3 bench/child.py {timed,memory,traced} SPANS_PATH -- MSSIM_ARGS...

The parent notes the monotonic clock just before it starts this process.
This process prints one JSON line with the clock readings it took (entry
to and exit from `Simulation.run`, return of `cli_main` after the last
artifact is written), the process's peak resident set, and per mode:
`memory` adds the tracemalloc peak from config load through artifact
writing, `traced` adds the per-layer metrics and writes the spans to
SPANS_PATH. The monotonic clock is system-wide on Linux, so the parent
can subtract its own reading from these.
"""

import json
import sys
import time
from pathlib import Path

mode, spans_path, sep, *mssim_args = sys.argv[1:]
if mode not in ("timed", "memory", "traced") or sep != "--":
    sys.exit(__doc__)

import mssim  # noqa: E402  (the import is part of the measured set-up)
from mssim import cli, simulation  # noqa: E402

out = {"mssim": str(Path(mssim.__file__).resolve().parent)}

if mode == "traced":
    import tracer  # noqa: E402

    spans = tracer.Tracer()
    tracer.install(spans)

run = simulation.Simulation.run
sims = []


def timed_run(self):
    out["run_start"] = time.perf_counter()
    result = run(self)
    out["run_end"] = time.perf_counter()
    out["stage_requests"] = result.report.stage_requests
    sims.append(self)
    return result


simulation.Simulation.run = timed_run

if mode == "memory":
    import tracemalloc  # noqa: E402

    tracemalloc.start()
out["rc"] = cli.cli_main(mssim_args)
out["end"] = time.perf_counter()
if mode == "memory":
    out["heap_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()


# VmHWM belongs to this process's own address space; ru_maxrss can carry
# the parent's peak over when the child was started by vfork
status = Path("/proc/self/status").read_text().splitlines()
out["peak_rss_kib"] = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

if mode == "traced" and out["rc"] == 0:
    args = cli.build_parser().parse_args(mssim_args)
    written = [Path(args.out, "report.json"), Path(args.out, "requests.csv")]
    if args.trace_out:
        written.append(Path(args.trace_out))
    out["layers"] = tracer.layer_metrics(
        spans,
        out["stage_requests"],
        sims[0].collector,
        sum(p.stat().st_size for p in written),
    )
    spans.save(Path(spans_path))

print(json.dumps(out))
