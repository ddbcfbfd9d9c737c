"""Usage monitor: per-request records, utilization, imbalance, ECDF, report."""

from __future__ import annotations

import io
import json
import math
import operator
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, BinaryIO, Iterable, Iterator, Optional

import numpy as np

from .engine import SimTime
from .errors import EmptyInput, InvalidMetric
from .model import InstanceId, MicroserviceId


def _check_times(total: SimTime, exec_time: SimTime) -> None:
    if exec_time <= 0:
        raise InvalidMetric("execution time must be > 0")
    if total < exec_time:
        raise InvalidMetric(f"total {total} < exec {exec_time}")


def slowdown(total: SimTime, exec_time: SimTime) -> float:
    """Total time in system divided by pure execution time; 1.0 means no queueing."""
    _check_times(total, exec_time)
    return total / exec_time


@dataclass(slots=True)
class RequestRecord:
    """What was measured for one completed client request or stage.

    total, wait and slowdown are derived from these fields when read.
    """

    request_id: int
    scope: str  # "client" or "stage"
    created_at: SimTime  # creation (client) or arrival at instance (stage)
    completed_at: SimTime
    exec: SimTime  # critical-path exec (client) or stage exec (stage)

    @property
    def total(self) -> SimTime:
        return self.completed_at - self.created_at

    @property
    def wait(self) -> SimTime:
        return self.completed_at - self.created_at - self.exec

    @property
    def slowdown(self) -> float:
        return slowdown(self.completed_at - self.created_at, self.exec)


BLOCK = 2048  # rows turned into Python objects at a time
# rows of an artifact formatted, or trace records parsed, at a time; a
# BLOCK of them as Python objects would set the heap peak of a replay
WRITE_ROWS = 256
_EXACT = 2**53  # integers in [0, _EXACT) and their differences are exact as float64


def int_column(fields: Sequence) -> array:
    """`int` of each field as an int32 column, else int64; OverflowError past int64."""
    try:
        return array("i", map(int, fields))
    except OverflowError:
        return array("q", map(int, fields))


class ColumnView(Sequence):
    """Read-only rows kept as equal-length int32 columns, each int64 once a value needs it.

    A row object is built only when it is read. Subclasses name their
    columns in `_fields` and build one row from one Python int per column
    in `_row`. Views compare equal to any sequence of equal rows.

    Given a file by `spill`, a view writes its rows there in the order
    they were appended, BLOCK at a time, each column of a block at its
    width then, and keeps only the rest in its columns. Reading covers the
    flushed blocks and then the rows in memory.
    """

    __slots__ = ("_spill", "_flushed", "_flush_at")
    _fields: tuple[str, ...] = ()

    def __init__(self):
        for name in self._fields:
            setattr(self, name, array("i"))
        self._spill: Optional[BinaryIO] = None
        self._flushed: list[tuple[int, int, str]] = []  # (offset, rows, typecodes) per block
        self._flush_at = sys.maxsize  # rows in memory at which an append flushes

    def spill(self, file: BinaryIO) -> None:
        """Flush rows to `file` as they are appended; other views may share the open file."""
        self._spill = file
        self._flush_at = BLOCK

    def columns(self) -> list[array]:
        """The columns of the rows in memory: every row, unless the view spills."""
        return [getattr(self, name) for name in self._fields]

    def arrays(self) -> list[np.ndarray]:
        """`columns()` as int32 or int64 numpy arrays, each at its own width, without a copy."""
        return [np.frombuffer(col, col.typecode) for col in self.columns()]

    def extend(self, columns: Sequence[array]) -> None:
        """Append the rows of equal-length columns, widening a column where its new one is wider."""
        for name, new in zip(self._fields, columns):
            col = getattr(self, name)
            if new.itemsize > col.itemsize:
                col = array(new.typecode, col)
                setattr(self, name, col)
            col.extend(new if new.typecode == col.typecode else array(col.typecode, new))

    def _append_wide(self, values: Sequence[int]) -> None:
        """Append a row after an append overflowed partway, widening the columns it needs.

        The columns are first cut back to their old length, and stay so if a
        value is past int64, which raises OverflowError.
        """
        cols = self.columns()
        n = min(map(len, cols))
        for col in cols:
            del col[n:]
        self.extend([int_column((v,)) for v in values])

    def _flush(self) -> None:
        """Write the rows in memory to the spill file as one block, then drop them."""
        cols = self.columns()
        offset = self._spill.seek(0, io.SEEK_END)
        self._spill.write(b"".join(cols))
        self._flushed.append((offset, len(cols[0]), "".join(col.typecode for col in cols)))
        for col in cols:
            del col[:]

    def _read(self, offset: int, rows: int, typecodes: str) -> list[np.ndarray]:
        """The columns of a flushed block, read back from the spill file."""
        self._spill.seek(offset)
        return [np.frombuffer(self._spill.read(rows * np.dtype(t).itemsize), t) for t in typecodes]

    def _chunks(self) -> Iterator[list[np.ndarray]]:
        """The columns of each flushed block, then those of the rows in memory."""
        for block in self._flushed:
            yield self._read(*block)
        yield self.arrays()

    def _row(self, *values: int) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(rows for _, rows, _ in self._flushed) + len(getattr(self, self._fields[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            # reads every row, flushed ones too: slices are for small views
            cols = (np.concatenate(blocks) for blocks in zip(*self._chunks()))
            return list(map(self._row, *(col[i].tolist() for col in cols)))
        i = range(len(self))[i]  # IndexError and negative indices as for a list
        for block in self._flushed:
            if i < block[1]:
                return self._row(*(int(col[i]) for col in self._read(*block)))
            i -= block[1]
        return self._row(*(int(col[i]) for col in self.columns()))

    def blocks(self, rows: int = BLOCK) -> Iterator[list[np.ndarray]]:
        """The columns as numpy arrays, at most `rows` rows at a time."""
        for cols in self._chunks():
            for start in range(0, len(cols[0]), rows):
                yield [col[start:start + rows] for col in cols]

    def __iter__(self) -> Iterator[Any]:
        for block in self.blocks():
            yield from map(self._row, *(col.tolist() for col in block))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} rows>"


def _derived(
    created: np.ndarray, completed: np.ndarray, exec_time: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """total and total / exec per record, equal to Python's int arithmetic on them."""
    if not len(created) or (created.min() >= 0 and completed.max() < _EXACT):
        # numpy's division rounds the exact quotient once, as int / int does;
        # 0 <= total <= completed, so an int32 difference cannot wrap
        total = completed - created
        return total, total / exec_time
    total = np.array([c - a for a, c in zip(created.tolist(), completed.tolist())], dtype=object)
    return total, np.array([t / e for t, e in zip(total.tolist(), exec_time.tolist())])


class RecordColumns(ColumnView):
    """The completed client requests or stages of a run, one column per field."""

    __slots__ = ("scope", "request_id", "created_at", "completed_at", "exec")
    _fields = ("request_id", "created_at", "completed_at", "exec")

    def __init__(self, scope: str):
        self.scope = scope  # "client" or "stage"
        super().__init__()

    def append(
        self, request_id: int, created_at: SimTime, completed_at: SimTime, exec_time: SimTime
    ) -> None:
        try:
            self.request_id.append(request_id)
            self.created_at.append(created_at)
            self.completed_at.append(completed_at)
            self.exec.append(exec_time)
        except OverflowError:
            try:
                self._append_wide((request_id, created_at, completed_at, exec_time))
            except OverflowError:
                raise InvalidMetric(
                    f"request {request_id}: a time in ({created_at}, {completed_at}, "
                    f"{exec_time}) us does not fit int64"
                ) from None
        if len(self.exec) >= self._flush_at:
            self._flush()

    def _row(self, request_id: int, created_at: int, completed_at: int, exec_time: int) -> RequestRecord:
        return RequestRecord(request_id, self.scope, created_at, completed_at, exec_time)

    def slowdown_blocks(self) -> Iterator[np.ndarray]:
        """total / exec per record, as a float64 array per block of `blocks()`."""
        for _, created, completed, exec_time in self.blocks():
            yield _derived(created, completed, exec_time)[1]

    def slowdowns(self) -> np.ndarray:
        """total / exec per record, as one float64 column (what `--emit-ecdf` holds)."""
        return np.concatenate([np.empty(0), *self.slowdown_blocks()])


def imbalance(per_interval_utils: np.ndarray) -> float:
    """Mean over intervals of the population std of per-instance utilization.

    `per_interval_utils` has shape (instances, intervals). The mean is the
    exactly rounded sum of the stds (`math.fsum`) over the interval count.
    """
    arr = np.asarray(per_interval_utils, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise InvalidMetric("imbalance needs at least 2 instances")
    if arr.shape[1] < 1:
        raise InvalidMetric("imbalance needs at least 1 sampling interval")
    stds = arr.std(axis=0, ddof=0)
    return math.fsum(stds.tolist()) / len(stds)


def _ecdf_columns(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique x and F(x) = fraction of values <= x, as two float64 arrays."""
    if len(values) == 0:
        raise EmptyInput("ecdf of empty input")
    arr = np.asarray(values, dtype=float)
    xs, counts = np.unique(arr, return_counts=True)  # sorts a copy of arr
    return xs, np.cumsum(counts) / arr.size


def ecdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Sorted unique x with F(x) = fraction of values <= x; F(max) == 1."""
    return list(zip(*(col.tolist() for col in _ecdf_columns(values))))


def percentile(values: Sequence[float], q: float) -> float:
    """Empirical quantile: smallest x with F(x) >= q."""
    if len(values) == 0:
        raise EmptyInput("percentile of empty input")
    return float(np.quantile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


_BITS = 12  # a selection pass counts a key range in 4,096 bins


def _summary(records: RecordColumns) -> Optional[dict]:
    """Mean, p50 and p99 of the slowdowns; None if none.

    The mean is the exactly rounded sum (`math.fsum`, Shewchuk 1997) over n,
    so it depends on neither the block size nor numpy. p50 and p99 equal
    np.quantile(..., method="inverted_cdf") bit for bit.
    Streamed over the record blocks: the first pass takes the sum.
    p50 and p99 are selected by radix passes (Munro & Paterson 1980) over the
    int64 views of the doubles, in value order as every slowdown is >= 1:
    a pass counts the range that holds the rank and narrows it to the bin
    that does, until it holds one key, or at most BLOCK for the next to collect.
    """
    n = len(records)
    if not n:
        return None

    def scan(tallies: dict) -> Iterator[np.ndarray]:
        for vals in records.slowdown_blocks():
            keys = vals.view(np.int64)
            for (lo, hi, shift), tally in tallies.items():
                sub = keys[(keys >= lo) & (keys < hi)]
                if shift is None:
                    tally.append(sub)
                elif len(sub):
                    tally[:] = (tally[0] + np.bincount((sub - lo) >> shift, minlength=1 << _BITS),
                                min(tally[1], int(sub.min())), max(tally[2], int(sub.max())))
            yield vals

    one = int(np.float64(1).view(np.int64))
    # per quantile (lo, hi, shift, rank): its key is the rank-th in [lo, hi),
    # tallied as keys if shift is None, else as counts per 2**shift keys, least
    # and greatest; the first pass counts [1.0, 2.0**128) in 32nds of an octave
    pending = {q: (one, one + (1 << 59), 47, max(math.ceil(n * q - 1), 0)) for q in (0.50, 0.99)}
    found, mean = {}, None
    while pending:
        tallies = {r[:3]: [] if r[2] is None else [0, 1 << 63, 0] for r in pending.values()}
        blocks = scan(tallies)
        if mean is None:
            # a memoryview hands out one Python float at a time, so the pass
            # holds no list of a block's floats
            mean = math.fsum(chain.from_iterable(map(memoryview, blocks))) / n
        for _ in blocks:
            pass
        for q, (lo, hi, shift, rank) in list(pending.items()):
            tally = tallies[lo, hi, shift]
            del pending[q]
            if shift is None:
                found[q] = np.partition(np.concatenate(tally), rank)[rank]
            elif tally[1] == tally[2]:  # one key, taken without its copies
                found[q] = tally[1]
            else:
                below = np.cumsum(tally[0])
                b = int(np.searchsorted(below, rank, side="right"))
                lo, count = lo + (b << shift), int(tally[0][b])
                narrow = None if count <= BLOCK else max(shift - _BITS, 0)
                pending[q] = (lo, lo + (1 << shift), narrow, rank - int(below[b]) + count)
    p50, p99 = np.array([found[0.50], found[0.99]], np.int64).view(np.float64).tolist()
    return {"mean": mean, "p50": p50, "p99": p99}


@dataclass
class SimReport:
    """Aggregate results of one simulation run."""

    client_requests: int
    stage_requests: int
    end_time: SimTime
    drain_until: SimTime
    seed: int
    lb_policy: str
    queue_policy: str
    client_slowdown: Optional[dict] = None  # mean / p50 / p99
    stage_slowdown: Optional[dict] = None
    utilization_by_ms: dict = field(default_factory=dict)
    imbalance_by_ms: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Deterministic serialization with stable key ordering."""
        doc = {
            "client_requests": self.client_requests,
            "stage_requests": self.stage_requests,
            "end_time_us": self.end_time,
            "drain_until_us": self.drain_until,
            "seed": self.seed,
            "lb_policy": self.lb_policy,
            "queue_policy": self.queue_policy,
            "slowdown": {
                "client": self.client_slowdown,
                "stage": self.stage_slowdown,
            },
            "utilization": {str(k): v for k, v in sorted(self.utilization_by_ms.items())},
            "imbalance": {str(k): v for k, v in sorted(self.imbalance_by_ms.items())},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class MetricsCollector:
    """Single-threaded recorder fed by the engine; finalization is pure."""

    def __init__(self, instance_ids: Sequence[InstanceId]):
        self.instance_ids = list(instance_ids)
        # microservice -> rows of its instances in instance_ids, by microservice
        self._rows_by_ms: dict[MicroserviceId, list[int]] = {}
        for row, inst in sorted(enumerate(self.instance_ids), key=lambda e: e[1].ms):
            self._rows_by_ms.setdefault(inst.ms, []).append(row)
        self.client_records = RecordColumns("client")
        self.stage_records = RecordColumns("stage")
        # snapshot series, flat: the time, then the cumulative busy per instance
        self.util_snapshots = array("q")
        self.imbalance_snapshots = array("q")

    # both recorders check the times, so a bad run fails where it goes wrong

    def record_client(
        self, request_id: int, created_at: SimTime, completed_at: SimTime, exec_time: SimTime
    ) -> None:
        if not 0 < exec_time <= completed_at - created_at:  # a call only for a bad time
            _check_times(completed_at - created_at, exec_time)
        self.client_records.append(request_id, created_at, completed_at, exec_time)

    def record_stage(
        self, request_id: int, arrived_at: SimTime, completed_at: SimTime, exec_time: SimTime
    ) -> None:
        if not 0 < exec_time <= completed_at - arrived_at:  # a call only for a bad time
            _check_times(completed_at - arrived_at, exec_time)
        self.stage_records.append(request_id, arrived_at, completed_at, exec_time)

    def snapshot(self, kind: str, at: SimTime, busy_cum: list[SimTime]) -> None:
        series = self.util_snapshots if kind == "util" else self.imbalance_snapshots
        series.append(at)
        series.extend(busy_cum)

    # -- finalization --------------------------------------------------------

    def _window_utils(self, snapshots: array) -> np.ndarray:
        """Per-instance utilization per window, from cumulative busy snapshots.

        The result has shape (instances, windows).
        """
        n = len(self.instance_ids)
        # a row of zeros at time 0, then one row per snapshot, as doubles
        rows = np.zeros((len(snapshots) // (n + 1) + 1, n + 1))
        rows[1:] = np.frombuffer(snapshots, np.int64).reshape(-1, n + 1)
        lengths = np.diff(rows[:, 0])
        deltas = np.diff(rows[:, 1:], axis=0).T  # (instances, windows)
        keep = lengths > 0
        return deltas[:, keep] / lengths[keep]

    def utilization_by_ms(self) -> dict[MicroserviceId, float]:
        """Mean over sampling windows of each microservice's utilization.

        The summed utilization of its instances per window is averaged as
        the exactly rounded sum (`math.fsum`) over the window count, then
        divided by the instance count.
        """
        utils = self._window_utils(self.util_snapshots)
        windows = utils.shape[1]
        if windows == 0:
            return {}
        return {
            ms: math.fsum(utils[rows].sum(axis=0).tolist()) / windows / len(rows)
            for ms, rows in self._rows_by_ms.items()
        }

    def imbalance_by_ms(self) -> dict[MicroserviceId, float]:
        """Imbalance for every microservice with at least two instances."""
        utils = self._window_utils(self.imbalance_snapshots)
        if utils.shape[1] == 0:
            return {}
        return {
            ms: imbalance(utils[rows])
            for ms, rows in self._rows_by_ms.items()
            if len(rows) >= 2
        }

    def finalize_report(
        self,
        end_time: SimTime,
        drain_until: SimTime,
        seed: int,
        lb_policy: str,
        queue_policy: str,
    ) -> SimReport:
        return SimReport(
            client_requests=len(self.client_records),
            stage_requests=len(self.stage_records),
            end_time=end_time,
            drain_until=drain_until,
            seed=seed,
            lb_policy=lb_policy,
            queue_policy=queue_policy,
            client_slowdown=_summary(self.client_records),
            stage_slowdown=_summary(self.stage_records),
            utilization_by_ms=self.utilization_by_ms(),
            imbalance_by_ms=self.imbalance_by_ms(),
        )


REQUESTS_CSV_HEADER = [
    "request_id",
    "scope",
    "created_at",
    "completed_at",
    "total_us",
    "exec_us",
    "wait_us",
    "slowdown",
]


def write_requests_csv(sections: Iterable[RecordColumns], fp: io.TextIOBase) -> None:
    """One row per record, section after section.

    total, wait and slowdown are derived a block at a time as they are
    written, the slowdown as the repr of its double. No field needs CSV
    quoting, so rows are formatted directly, WRITE_ROWS at a time.
    """
    fp.write(",".join(REQUESTS_CSV_HEADER) + "\n")
    for records in sections:
        row = f"{{}},{records.scope},{{}},{{}},{{}},{{}},{{}},{{!r}}\n".format
        for request_id, created, completed, exec_time in records.blocks(WRITE_ROWS):
            total, slow = _derived(created, completed, exec_time)
            # 0 <= total - exec <= total, so an int32 block holds it too
            fp.write("".join(map(
                row, request_id.tolist(), created.tolist(), completed.tolist(),
                total.tolist(), exec_time.tolist(), (total - exec_time).tolist(), slow.tolist(),
            )))


def write_ecdf_csv(values: Sequence[float], fp: io.TextIOBase) -> None:
    """The ECDF of `values`, one `x,f` row per point with the repr of each double.

    Rows are formatted directly, WRITE_ROWS at a time; no repr needs CSV quoting.
    """
    xs, fs = _ecdf_columns(values)
    fp.write("x,f\n")
    for start in range(0, len(xs), WRITE_ROWS):
        block = (col[start:start + WRITE_ROWS].tolist() for col in (xs, fs))
        fp.write("".join(map("{!r},{!r}\n".format, *block)))
