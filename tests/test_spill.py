"""The command line spills finished records and trace rows to an unnamed file in --out.

Its artifacts must equal those of the library path, which keeps every row
in memory, byte for byte; its heap must not grow with the records.
"""

import hashlib
import io
import json
import math
import os
import tempfile
import tracemalloc

import pytest

from mssim import metrics, simulation
from mssim.cli import cli_main
from mssim.config import config_from_dict
from mssim.errors import InvalidMetric
from mssim.metrics import ColumnView, RecordColumns, RequestRecord, write_ecdf_csv, write_requests_csv
from mssim.simulation import run_simulation
from mssim.workload import write_trace_csv

SMALL = {
    "end_time": "1s",
    "seed": 11,
    "arrival": {"mean_interarrival": 5000},
    "exec": {"mu": 6.9077, "sigma": 0.5, "unit": "us"},
    "depth": {"0": 0.5, "2": 0.5},
    "microservices": [2, 2],
    "utilization_interval": "500ms",
    "imbalance_interval": "250ms",
}

CASES = {
    "fcfs-rr": {"queue_policy": "fcfs", "lb_policy": "round_robin"},
    "fs-greedy": {"queue_policy": {"kind": "fair_share", "quantum": 300}, "lb_policy": "greedy"},
    # fan-out 2 puts several trace rows of a request at one timestamp; at
    # depth 1 every row still names its parent (ROADMAP item 5)
    "exds-lc-fanout": {
        "queue_policy": "exds", "lb_policy": "least_connection", "microservices": [2, 2, 1],
        "depth": {"0": 0.5, "1": 0.5},
        "routing": {"call_probabilities": [0.5, 0.3, 0.2], "fanout": 2},
        "communication": {"comm_probabilities": [0.4, 0.3, 0.3], "fanout": 2},
    },
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def library_artifacts(cfg):
    """The CLI's artifacts, written from a run that keeps every row in memory."""
    result = run_simulation(cfg, collect_trace=True)
    files = {"report.json": result.report.to_json()}
    for name, write, rows in (
        ("requests.csv", write_requests_csv, (result.client_records, result.stage_records)),
        ("ecdf_slowdown.csv", write_ecdf_csv, result.client_records.slowdowns()),
        ("trace.csv", write_trace_csv, result.trace_rows),
    ):
        buf = io.StringIO()
        write(rows, buf)
        files[name] = buf.getvalue()
    return {name: text.encode() for name, text in files.items()}


@pytest.fixture
def flushes(monkeypatch):
    """Spill blocks of 3 rows, and count the blocks each kind of view flushes."""
    monkeypatch.setattr(metrics, "BLOCK", 3)
    counts = {}
    flush = ColumnView._flush

    def counted(self):
        counts[type(self).__name__] = counts.get(type(self).__name__, 0) + 1
        flush(self)

    monkeypatch.setattr(ColumnView, "_flush", counted)
    return counts


def cli_artifacts(out):
    return {p: (out / p).read_bytes() for p in sorted(os.listdir(out))}


@pytest.mark.parametrize("policies", CASES.values(), ids=CASES.keys())
def test_spilled_cli_artifacts_equal_the_library_path(tmp_path, flushes, policies):
    doc = dict(SMALL, **policies)
    out = tmp_path / "out"
    argv = ["--config", write_config(tmp_path, doc), "--out", str(out), "--emit-ecdf",
            "--trace-out", str(out / "trace.csv")]
    assert cli_main(argv) == 0
    want = library_artifacts(config_from_dict(doc))
    # the spill file has no name, so --out holds the artifacts alone
    assert cli_artifacts(out) == want
    assert flushes["RecordColumns"] > 100 and flushes["TraceColumns"] > 50
    # a replay of the written trace spills as well and writes the same bytes
    flushes.clear()
    replayed = tmp_path / "replayed"
    assert cli_main(argv[:2] + ["--out", str(replayed), "--emit-ecdf", "--trace-in",
                                str(out / "trace.csv"), "--trace-out", str(replayed / "trace.csv")]) == 0
    assert cli_artifacts(replayed) == want
    assert flushes["RecordColumns"] > 100 and flushes["TraceColumns"] > 50


def write_grid_trace(path):
    """A trace of 400 requests in which many stages are dispatched at each instant.

    Every exec is 1 ms and four requests arrive on each ms of a grid, so
    stages of several requests and depths are dispatched at one timestamp,
    not in (request_id, hops_done) order.
    """
    lines = ["request_id,timestamp,called_ms,exetime,hops_done,called_by"]
    for r in range(400):
        t, a, b = r // 4 * 1000, r % 2, 1 - r % 2
        lines += [f"{r},{t},{a},1000,0,", f"{r},{t},{b},1000,1,{a}", f"{r},{t},{a},1000,2,{b}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_spilled_trace_of_many_rows_per_instant_equals_the_library_path(tmp_path, flushes):
    trace = write_grid_trace(tmp_path / "grid.csv")
    doc = dict(SMALL, trace_in=str(trace))
    out = tmp_path / "out"
    argv = ["--config", write_config(tmp_path, doc), "--out", str(out),
            "--trace-out", str(out / "trace.csv")]
    assert cli_main(argv) == 0
    want = library_artifacts(config_from_dict(doc))
    del want["ecdf_slowdown.csv"]
    assert cli_artifacts(out) == want
    assert flushes["TraceColumns"] > 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_trace_sorted_as_earlier_versions_wrote_it_replays_alike(tmp_path, seed):
    # earlier versions wrote the trace sorted by (timestamp, request_id,
    # hops_done), ties in dispatch order; both orders replay to the artifacts
    # of the run that wrote the trace. With every exec 1 ms, stages of several
    # requests are often dispatched at one instant, where the orders differ
    ran = tmp_path / "ran"
    doc = dict(SMALL, seed=seed, **CASES["exds-lc-fanout"], arrival={"mean_interarrival": 1000},
               exec={"mu": math.log(1000), "sigma": 0, "unit": "us"})
    config = write_config(tmp_path, doc)
    argv = ["--config", config, "--out", str(ran), "--trace-out", str(ran / "trace.csv")]
    assert cli_main(argv) == 0
    header, *rows = (ran / "trace.csv").read_text(encoding="utf-8").splitlines(keepends=True)

    def key(line):
        request_id, timestamp, _, _, hops_done, _ = line.split(",")
        return int(timestamp), int(request_id), int(hops_done)

    earlier = sorted(rows, key=key)
    assert earlier != rows
    (tmp_path / "sorted.csv").write_text(header + "".join(earlier), encoding="utf-8")
    for i, trace in enumerate([ran / "trace.csv", tmp_path / "sorted.csv"]):
        out = tmp_path / f"replay{i}"
        assert cli_main(["--config", config, "--out", str(out), "--trace-in", str(trace),
                         "--trace-out", str(out / "trace.csv")]) == 0
        assert cli_artifacts(out) == cli_artifacts(ran)


def test_spilled_run_past_2_31_us_gives_the_pinned_digests(tmp_path, monkeypatch):
    # tests/test_simulation.py::test_a_run_past_2_31_us_widens_only_its_time_columns
    # through the command line: the time columns widen to int64 partway, so
    # early blocks are flushed at int32 and later ones at int64
    monkeypatch.setattr(metrics, "BLOCK", 64)
    doc = {
        "end_time": 2_200_000_000, "seed": 3, "sla": 4_000_000,
        "arrival": {"mean_interarrival": 2_000_000},
        "exec": {"mu": math.log(1000), "sigma": 0.5, "unit": "us"},
        "depth": {"0": 0.5, "2": 0.5},
        "routing": {"call_probabilities": [0.5, 0.5]},
        "communication": {"comm_probabilities": [0.5, 0.5]},
        "microservices": [2, 2],
        "utilization_interval": 100_000_000, "imbalance_interval": 50_000_000,
    }
    widths = set()
    flush = ColumnView._flush

    def noted(self):
        widths.add("".join(col.typecode for col in self.columns()))
        flush(self)

    monkeypatch.setattr(ColumnView, "_flush", noted)
    out = tmp_path / "out"
    argv = ["--config", write_config(tmp_path, doc), "--out", str(out),
            "--trace-out", str(out / "trace.csv")]
    assert cli_main(argv) == 0
    assert widths == {"iiii", "iqqi", "iiiiii", "iqiiii"}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in cli_artifacts(out).items()} == {
        "report.json": "a4629fe9b49794dedf9c8d0db6ef540edf9cff2fdbfd0ced99d14ac0dfd5bed5",
        "requests.csv": "1b336b6f11d5a0a37d5de43715fbc752c31f5031b210a320a9e43b69c9011d85",
        "trace.csv": "2bfb31b7fc29e357cb215d6ae845438081adea9be7d08ab81a72a1a22064cb00",
    }


def test_record_columns_spill_blocks_at_their_own_widths(monkeypatch):
    # the edge rows of test_record_columns_widen_only_the_columns_that_overflow,
    # two to a block: the last block is past 2**53 and alone takes the exact path
    monkeypatch.setattr(metrics, "BLOCK", 2)
    rows = [
        (1, 0, 10, 5),
        (2, 2**31 - 11, 2**31 - 1, 10),
        (3, 2**31 - 5, 2**31, 5),
        (4, -2**31 - 1, 0, 7),
        (5, 2**40, 2**40 + 2**53 + 1, 3),
    ]
    want = [RequestRecord(i, "stage", a, c, e) for i, a, c, e in rows]
    with tempfile.TemporaryFile() as spill:
        records = RecordColumns("stage")
        records.spill(spill)
        for row in rows:
            records.append(*row)
        with pytest.raises(InvalidMetric, match="does not fit int64"):
            records.append(6, 0, 2**63, 2**31)
        assert [(rows, t) for _, rows, t in records._flushed] == [(2, "iiii"), (2, "iqqi")]
        assert len(records) == 5 and [len(c) for c in records.columns()] == [1, 1, 1, 1]
        assert records == want and list(records) == want
        assert records[2] == want[2] and records[-1] == want[-1] and records[1:4] == want[1:4]
        assert records[::-2] == want[::-2]
        with pytest.raises(IndexError):
            records[5]
        assert records.slowdowns().tolist() == [(c - a) / e for _, a, c, e in rows]
        assert [len(block[0]) for block in records.blocks(3)] == [2, 2, 1]
        buf = io.StringIO()
        write_requests_csv([records], buf)
    assert buf.getvalue().splitlines()[1:] == [
        f"{r.request_id},stage,{r.created_at},{r.completed_at},{r.total},{r.exec},{r.wait},{r.slowdown!r}"
        for r in want
    ]


def test_out_holds_only_the_artifacts_after_a_runtime_error(tmp_path, capsys):
    # tests/test_cli.py::test_cli_completion_past_int64_is_a_runtime_error:
    # --out is made before the run, and the spill file goes with the error
    horizon = 2**62
    doc = dict(
        SMALL, end_time=horizon, seed=1, arrival={"mean_interarrival": 2**58},
        exec={"mu": 42.9, "sigma": 0, "unit": "us"}, depth={"0": 1.0}, microservices=[1],
        routing={"call_probabilities": [1.0]}, communication={"comm_probabilities": [1.0]},
        utilization_interval=horizon, imbalance_interval=horizon,
    )
    out = tmp_path / "out"
    assert cli_main(["--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "does not fit int64" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_an_out_that_cannot_be_made_fails_before_the_run(tmp_path, capsys, monkeypatch, where):
    (tmp_path / "file").write_text("", encoding="utf-8")

    def run(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(simulation.Simulation, "run", run)
    argv = ["--config", write_config(tmp_path, SMALL), "--out", str(tmp_path / where)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err


def test_cli_heap_does_not_grow_with_the_records(tmp_path, monkeypatch):
    # records go to the spill file and finalisation streams over its blocks,
    # so a run twice as long peaks at about the same heap: this reads under
    # 1 B a stage here; it read 8.7 B while finalisation held a float64
    # slowdown column, and 33.9 B when every record was held in memory too
    cfg = write_config(tmp_path, dict(SMALL, exec={"mu": 6.0, "sigma": 0.5, "unit": "us"}))
    stages = []
    run = simulation.Simulation.run

    def counted(self):
        result = run(self)
        stages.append(result.report.stage_requests)
        return result

    monkeypatch.setattr(simulation.Simulation, "run", counted)
    peaks = []
    # the first run's peak carries one-time allocations, so it is not measured
    for end in ("20s", "40s", "80s"):
        tracemalloc.start()
        try:
            assert cli_main(["--config", cfg, "--end-time", end, "--out", str(tmp_path / end)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_stage = (peaks[2] - peaks[1]) / (stages[2] - stages[1])
    assert per_stage <= 2, (stages, peaks, per_stage)
