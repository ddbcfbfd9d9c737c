"""mssim: deterministic discrete-event simulator for microservice applications."""

from .config import SimConfig, load_config
from .engine import Engine, RngStream
from .gateway import LbPolicy, Registry
from .instance import QueueKind, QueuePolicy
from .metrics import (
    RequestRecord,
    SimReport,
    ecdf,
    imbalance,
    percentile,
    slowdown,
    write_ecdf_csv,
    write_requests_csv,
)
from .simulation import SimResult, Simulation, run_simulation
from .workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    WorkloadModel,
    read_trace_csv,
    replay_trace,
    write_trace_csv,
)

__all__ = [
    "ArrivalModel",
    "CommunicationModel",
    "DepthModel",
    "Engine",
    "ExecModel",
    "ExecUnit",
    "LbPolicy",
    "QueueKind",
    "QueuePolicy",
    "Registry",
    "RequestRecord",
    "RngStream",
    "RoutingModel",
    "SimConfig",
    "SimReport",
    "SimResult",
    "Simulation",
    "WorkloadModel",
    "ecdf",
    "imbalance",
    "load_config",
    "percentile",
    "read_trace_csv",
    "replay_trace",
    "run_simulation",
    "slowdown",
    "write_ecdf_csv",
    "write_requests_csv",
    "write_trace_csv",
]

__version__ = "0.1.0"
