"""Simulation configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .engine import SimTime
from .errors import ParseError, ValidationError
from .gateway import LbPolicy
from .instance import QueueKind, QueuePolicy
from .workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    MAX_TIME,
    RoutingModel,
    WorkloadModel,
)

_DURATION_RE = re.compile(r"^\s*(\d{1,18})\s*(us|ms|s|h)?\s*$")
_UNIT_US = {"us": 1, "ms": 1_000, "s": 1_000_000, "h": 3_600_000_000, None: 1}


def parse_duration(value: Union[int, str], field_path: str = "duration") -> SimTime:
    """Integer microseconds, or a string with suffix us/ms/s/h."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    m = _DURATION_RE.match(str(value))
    if not m:
        raise ValidationError(field_path, f"not a duration: {value!r}")
    return int(m.group(1)) * _UNIT_US[m.group(2)]


DEFAULT_WEIGHTS = (0.62, 0.18, 0.08, 0.12)


@dataclass
class SimConfig:
    end_time: SimTime = 24 * 3_600_000_000  # 24 h
    seed: int = 1
    sla: SimTime = 4_000_000  # 4 s
    arrival: ArrivalModel = field(default_factory=lambda: ArrivalModel(1066))
    exec_model: ExecModel = field(
        default_factory=lambda: ExecModel(mu=4.13, sigma=3.48, unit=ExecUnit.MILLIS)
    )
    depth: DepthModel = field(
        default_factory=lambda: DepthModel(outcomes=((0, 0.5), (2, 0.5)))
    )
    routing: RoutingModel = field(
        default_factory=lambda: RoutingModel(call_probabilities=DEFAULT_WEIGHTS)
    )
    communication: CommunicationModel = field(
        default_factory=lambda: CommunicationModel(comm_probabilities=DEFAULT_WEIGHTS)
    )
    lb_policy: LbPolicy = LbPolicy.ROUND_ROBIN
    queue_policy: QueuePolicy = field(
        default_factory=lambda: QueuePolicy(QueueKind.FCFS)
    )
    microservices: tuple[int, ...] = (4, 2, 1, 1)  # instance count per microservice
    utilization_interval: SimTime = 3_600_000_000  # 1 h
    imbalance_interval: SimTime = 300_000_000  # 5 min
    drain: bool = True
    trace_in: Optional[str] = None
    trace_out: Optional[str] = None

    def workload(self) -> WorkloadModel:
        return WorkloadModel(
            arrival=self.arrival,
            exec=self.exec_model,
            depth=self.depth,
            routing=self.routing,
            communication=self.communication,
            sla=self.sla,
        )

    def validate(self) -> None:
        for name in ("end_time", "utilization_interval", "imbalance_interval"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "must be > 0")
        if self.end_time > MAX_TIME:
            raise ValidationError("end_time", f"must be <= {MAX_TIME} us")
        if not self.microservices or min(self.microservices) < 1:
            raise ValidationError("microservices", "must list instance counts >= 1")
        self.workload().validate(len(self.microservices))


# --- table-driven parsing ----------------------------------------------------
# Every parser takes (value, dotted field path) and returns the parsed value or
# raises ValidationError naming the field. Booleans are never numbers.

Parser = Callable[[Any, str], Any]
_DEFAULT = SimConfig()


def _integer(minimum: int) -> Parser:
    def parse(value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(path, "must be an integer")
        if value < minimum:
            raise ValidationError(path, f"must be >= {minimum}")
        return value

    return parse


def _number(value: Any, path: str) -> float:
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ValidationError(path, "must be a finite number")
    return float(value)


def _duration(value: Any, path: str) -> SimTime:
    duration = parse_duration(value, path)
    if duration <= 0:
        raise ValidationError(path, "must be > 0")
    return duration


def _of_type(types: Union[type, tuple[type, ...]], what: str) -> Parser:
    def parse(value: Any, path: str) -> Any:
        if not isinstance(value, types):
            raise ValidationError(path, f"must be {what}")
        return value

    return parse


def _enum(cls: type[Enum]) -> Parser:
    def parse(value: Any, path: str) -> Enum:
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValidationError(path, f"{value!r} is not one of {names}") from None

    return parse


def _list_of(item: Parser) -> Parser:
    def parse(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ValidationError(path, "must be a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return parse


def _object(fields: dict[str, tuple[str, Parser]], default: Any) -> Parser:
    """Parse a JSON object into `default` with the given keys replaced."""

    def parse(value: Any, path: str) -> Any:
        if not isinstance(value, dict):
            raise ValidationError(path or "<root>", "must be a JSON object")
        parsed = {}
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else str(key)
            if key not in fields:
                raise ValidationError(key_path, "unknown config key")
            attr, parse_item = fields[key]
            parsed[attr] = parse_item(item, key_path)
        return replace(default, **parsed)

    return parse


def _depth(value: Any, path: str) -> DepthModel:
    if not isinstance(value, dict):
        raise ValidationError(path, "must be a {depth: probability} object")
    outcomes = []
    for key, p in value.items():
        try:
            depth = int(key)
        except (TypeError, ValueError):
            raise ValidationError(f"{path}.{key}", "depth must be an integer") from None
        outcomes.append((depth, _number(p, f"{path}.{key}")))
    return DepthModel(outcomes=tuple(sorted(outcomes)))


_queue_kind = _enum(QueueKind)
_queue_object = _object(
    {"kind": ("kind", _queue_kind), "quantum": ("quantum", _duration)},
    _DEFAULT.queue_policy,
)


def _queue_policy(value: Any, path: str) -> QueuePolicy:
    """A kind name (default quantum) or a {kind, quantum} object."""
    if isinstance(value, str):
        return QueuePolicy(_queue_kind(value, path))
    return _queue_object(value, path)


def _weights(attr: str, default: Any) -> Parser:
    fields = {attr: (attr, _list_of(_number)), "fanout": ("fanout", _integer(1))}
    return _object(fields, default)


_arrival = _object({"mean_interarrival": ("mean_interarrival", _duration)}, _DEFAULT.arrival)
_exec = _object(
    {"mu": ("mu", _number), "sigma": ("sigma", _number), "unit": ("unit", _enum(ExecUnit))},
    _DEFAULT.exec_model,
)


# config key -> (SimConfig attribute, parser)
FIELDS: dict[str, tuple[str, Parser]] = {
    "end_time": ("end_time", _duration),
    "seed": ("seed", _integer(0)),
    "sla": ("sla", _duration),
    "arrival": ("arrival", _arrival),
    "exec": ("exec_model", _exec),
    "depth": ("depth", _depth),
    "routing": ("routing", _weights("call_probabilities", _DEFAULT.routing)),
    "communication": ("communication",
                      _weights("comm_probabilities", _DEFAULT.communication)),
    "lb_policy": ("lb_policy", _enum(LbPolicy)),
    "queue_policy": ("queue_policy", _queue_policy),
    "microservices": ("microservices", _list_of(_integer(1))),
    "utilization_interval": ("utilization_interval", _duration),
    "imbalance_interval": ("imbalance_interval", _duration),
    "drain": ("drain", _of_type(bool, "a boolean")),
    "trace_in": ("trace_in", _of_type((str, type(None)), "a file path or null")),
    "trace_out": ("trace_out", _of_type((str, type(None)), "a file path or null")),
}
_parse_config = _object(FIELDS, _DEFAULT)


def parse_field(key: str, value: Any, path: str) -> Any:
    """Parse one top-level value exactly as the config file would."""
    return FIELDS[key][1](value, path)


def config_from_dict(doc: Any) -> SimConfig:
    """Build a validated SimConfig, filling built-in defaults for absent keys.

    Absent routing or communication weights are DEFAULT_WEIGHTS, or equal
    weights when `microservices` does not list four microservices.
    """
    cfg = _parse_config(doc, "")
    n_ms = len(cfg.microservices)
    if 0 < n_ms != len(DEFAULT_WEIGHTS):  # an empty list fails validate() below
        equal = (1.0 / n_ms,) * n_ms
        if "call_probabilities" not in doc.get("routing", {}):
            cfg.routing = replace(cfg.routing, call_probabilities=equal)
        if "comm_probabilities" not in doc.get("communication", {}):
            cfg.communication = replace(cfg.communication, comm_probabilities=equal)
    cfg.validate()
    return cfg


def load_config(path: Union[str, Path]) -> SimConfig:
    """Load and validate a JSON config file; absent keys take built-in defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        doc = json.loads(text) if text.strip() else {}
    except ValueError as e:  # not UTF-8, not JSON, or an integer too long to convert
        raise ParseError(f"{path}: {e}") from e
    return config_from_dict(doc)
