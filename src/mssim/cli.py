"""Command-line entry point: run a simulation and emit report/CSV artifacts.

Precedence per field: CLI flag > config file > built-in default.
Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import BinaryIO, Optional, Sequence

from .config import SimConfig, load_config, parse_field
from .errors import ConfigError, MalformedTrace, SimError
from .gateway import LbPolicy
from .instance import QueueKind, QueuePolicy
from .metrics import write_ecdf_csv, write_requests_csv
from .simulation import run_simulation
from .workload import write_trace_csv

_LB_FLAGS = {
    "rr": LbPolicy.ROUND_ROBIN,
    "lc": LbPolicy.LEAST_CONNECTION,
    "greedy": LbPolicy.GREEDY,
}

_QUEUE_FLAGS = {
    "fcfs": QueueKind.FCFS,
    "sf": QueueKind.SHORTEST_FIRST,
    "fs": QueueKind.FAIR_SHARE,
    "ed-eds": QueueKind.EDS,
    "ed-exds": QueueKind.EXDS,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract wants 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit_(message)


class SystemExit_(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mssim", description="Microservice discrete-event simulator")
    p.add_argument("--config", type=str, help="JSON config file")
    p.add_argument("--seed", type=int, help="override the RNG master seed")
    p.add_argument("--end-time", type=str, help="simulation time limit (e.g. 60s, 24h)")
    p.add_argument("--lb", choices=sorted(_LB_FLAGS), help="load balancing policy")
    p.add_argument("--queue", choices=sorted(_QUEUE_FLAGS), help="queue ordering policy")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--trace-in", type=str, help="replay this workload trace CSV")
    p.add_argument("--trace-out", type=str, help="export the workload trace CSV here")
    p.add_argument("--emit-ecdf", action="store_true", help="write ecdf_slowdown.csv")
    return p


def _apply_overrides(cfg: SimConfig, args: argparse.Namespace) -> SimConfig:
    if args.seed is not None:
        cfg.seed = parse_field("seed", args.seed, "--seed")
    if args.end_time is not None:
        cfg.end_time = parse_field("end_time", args.end_time, "--end-time")
    if args.lb is not None:
        cfg.lb_policy = _LB_FLAGS[args.lb]
    if args.queue is not None:
        cfg.queue_policy = QueuePolicy(_QUEUE_FLAGS[args.queue], cfg.queue_policy.quantum)
    if args.trace_in is not None:
        cfg.trace_in = args.trace_in
    if args.trace_out is not None:
        cfg.trace_out = args.trace_out
    cfg.validate()
    return cfg


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit_ as e:
        print(f"error: {e.message}", file=sys.stderr)
        return 1

    try:
        cfg = load_config(args.config) if args.config else SimConfig()
        cfg = _apply_overrides(cfg, args)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    out = Path(args.out)
    # the run's records and trace rows go to an unnamed file in --out, which
    # is made and opened once the config and trace are accepted, before the
    # first event, and goes when the artifacts are written
    with ExitStack() as files:

        def spill() -> BinaryIO:
            out.mkdir(parents=True, exist_ok=True)
            return files.enter_context(tempfile.TemporaryFile(dir=out))

        try:
            result = run_simulation(cfg, _spill=spill)
            (out / "report.json").write_text(result.report.to_json(), encoding="utf-8")
            with open(out / "requests.csv", "w", encoding="utf-8", newline="") as fp:
                write_requests_csv((result.client_records, result.stage_records), fp)
            if args.emit_ecdf and result.client_records:
                with open(out / "ecdf_slowdown.csv", "w", encoding="utf-8", newline="") as fp:
                    write_ecdf_csv(result.client_records.slowdowns(), fp)
            if cfg.trace_out:
                with open(cfg.trace_out, "w", encoding="utf-8", newline="") as fp:
                    write_trace_csv(result.trace_rows, fp)
        except (ConfigError, MalformedTrace) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 1
        except (SimError, OSError) as e:  # OSError: --out, the spill file or an artifact
            print(f"runtime error: {e}", file=sys.stderr)
            return 2
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
