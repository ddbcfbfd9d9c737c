import csv
import io
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from mssim.errors import EmptyInput, InvalidMetric
from mssim.metrics import (
    MetricsCollector,
    RecordColumns,
    RequestRecord,
    ecdf,
    imbalance,
    percentile,
    slowdown,
    write_ecdf_csv,
    write_requests_csv,
)
from mssim.model import InstanceId
from oracles import exact_mean, ks_distance


def test_slowdown_arithmetic():
    assert slowdown(2000, 1000) == 2.0
    assert slowdown(1000, 1000) == 1.0


def test_slowdown_rejects_impossible_inputs():
    with pytest.raises(InvalidMetric):
        slowdown(500, 1000)
    with pytest.raises(InvalidMetric):
        slowdown(500, 0)


def test_record_identity_total_eq_wait_plus_exec():
    r = RequestRecord(1, "stage", created_at=100, completed_at=450, exec=200)
    assert r.total == r.wait + r.exec == 350
    assert r.slowdown == 350 / 200


def test_record_stores_only_measured_fields():
    assert RequestRecord.__slots__ == (
        "request_id", "scope", "created_at", "completed_at", "exec"
    )


@pytest.mark.parametrize("method", ["record_client", "record_stage"])
@pytest.mark.parametrize(
    "created,completed,exec_time",
    [(100, 250, 200), (0, 10, 0)],
    ids=["completed-before-exec", "zero-exec"],
)
def test_collector_rejects_impossible_times_when_recording(method, created, completed, exec_time):
    col = MetricsCollector([InstanceId(0, 0)])
    with pytest.raises(InvalidMetric):
        getattr(col, method)(7, created, completed, exec_time)
    assert col.client_records == col.stage_records == []


def test_imbalance_identical_instances_is_zero():
    assert imbalance(np.array([[0.4, 0.6], [0.4, 0.6]])) == 0.0


def test_imbalance_polarized_pair_is_half():
    assert imbalance(np.array([[1.0, 1.0], [0.0, 0.0]])) == 0.5


def test_imbalance_is_mean_of_interval_stddevs():
    # intervals with population stddevs 0.2 and 0.4
    arr = np.array([[0.5, 0.9], [0.1, 0.1]])
    assert imbalance(arr) == pytest.approx(0.3)


def test_imbalance_needs_two_instances():
    with pytest.raises(InvalidMetric):
        imbalance(np.array([[0.5, 0.5]]))


def test_ecdf_basic():
    assert ecdf([1, 2, 3]) == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]
    assert ecdf([5, 5, 5]) == [(5, 1.0)]


def test_ecdf_non_decreasing_ends_at_one():
    rng = np.random.default_rng(1)
    pts = ecdf(rng.lognormal(1.0, 0.7, size=5000))
    fs = [f for _, f in pts]
    assert fs == sorted(fs)
    assert fs[-1] == 1.0


def test_ecdf_empty_rejected():
    with pytest.raises(EmptyInput):
        ecdf([])


def test_ecdf_csv_bytes_are_those_of_a_csv_writer_over_ecdf_points():
    # more points than one formatted block, ties, and reprs with exponents
    rng = np.random.default_rng(4)
    values = np.concatenate([
        rng.lognormal(1.0, 3.0, size=1500), np.repeat([1.0, 2.5], 40), [1e-300, 1e300, 2**53 + 0.0],
    ])
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["x", "f"])
    for x, f in ecdf(values):
        writer.writerow([repr(x), repr(f)])
    got = io.StringIO()
    write_ecdf_csv(values, got)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().count("\n") == len(np.unique(values)) + 1


def test_percentile_matches_analytic_lognormal_quantile():
    mu, sigma = 1.0, 0.7
    rng = np.random.default_rng(12)
    xs = rng.lognormal(mu, sigma, size=10_000)
    analytic = math.exp(mu + 2.3263478740408408 * sigma)
    assert abs(percentile(xs, 0.99) - analytic) / analytic < 0.05


def test_ks_distance_identical_samples_is_zero():
    xs = [1.0, 2.0, 5.0]
    assert ks_distance(xs, xs) == 0.0
    assert ks_distance([0.0], [1.0]) == 1.0


def test_collector_window_utilization_and_report():
    ids = [InstanceId(0, 0), InstanceId(0, 1)]
    col = MetricsCollector(ids)
    # instance 0 busy the whole first window, idle the second; instance 1 idle
    col.snapshot("util", 100, [100, 0])
    col.snapshot("util", 200, [100, 0])
    assert col.utilization_by_ms() == {0: pytest.approx(0.25)}
    col.snapshot("imb", 100, [100, 0])
    col.snapshot("imb", 200, [100, 0])
    assert col.imbalance_by_ms() == {0: pytest.approx(0.25)}  # mean of 0.5 and 0

    col.record_client(0, 0, 150, 100)
    col.record_stage(0, 0, 150, 100)
    col.record_stage(0, 10, 20, 10)
    report = col.finalize_report(200, 200, seed=3, lb_policy="round_robin", queue_policy="fcfs")
    assert report.stage_requests >= report.client_requests
    assert report.client_slowdown["mean"] == pytest.approx(1.5)


def test_window_means_are_exactly_rounded_sums_over_the_window_count():
    # 12 windows of random lengths and busy times over two microservices of
    # 3 and 2 instances; numpy's mean of each window series (ndarray.mean)
    # differs from the exact one here in its last bits
    rng = np.random.default_rng(6)
    col = MetricsCollector([InstanceId(0, 0), InstanceId(0, 1), InstanceId(0, 2),
                            InstanceId(1, 0), InstanceId(1, 1)])
    at, busy, utils = 0, [0] * 5, []
    for _ in range(12):
        length = int(rng.integers(1, 10**6))
        at += length
        new = [b + int(rng.integers(0, length + 1)) for b in busy]
        utils.append([(n - b) / length for n, b in zip(new, busy)])
        busy = new
        col.snapshot("util", at, busy)
        col.snapshot("imbalance", at, busy)
    util, imb = {}, {}
    for ms, rows in ((0, [0, 1, 2]), (1, [3, 4])):
        # each window's instances summed in instance order, one rounding per addition
        sums = [reduce(operator.add, (window[row] for row in rows)) for window in utils]
        util[ms] = exact_mean(sums) / len(rows)
        imb[ms] = exact_mean(np.array(utils)[:, rows].T.std(axis=0).tolist())
    assert col.utilization_by_ms() == util
    assert col.imbalance_by_ms() == imb


def test_report_serialization_is_deterministic():
    ids = [InstanceId(0, 0)]

    def build():
        col = MetricsCollector(ids)
        col.record_client(0, 0, 300, 100)
        col.snapshot("util", 100, [50])
        return col.finalize_report(100, 100, 1, "greedy", "fcfs").to_json()

    assert build() == build()


def test_empty_run_report_is_valid():
    col = MetricsCollector([InstanceId(0, 0)])
    report = col.finalize_report(100, 100, 1, "round_robin", "fcfs")
    assert report.client_requests == 0
    assert report.client_slowdown is None
    assert "client_requests" in report.to_json()


def test_requests_csv_shape():
    col = MetricsCollector([InstanceId(0, 0)])
    col.record_client(3, 10, 40, 20)
    buf = io.StringIO()
    write_requests_csv([col.client_records], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "request_id,scope,created_at,completed_at,total_us,exec_us,wait_us,slowdown"
    assert lines[1] == "3,client,10,40,30,20,10,1.5"


def test_columns_divide_as_python_past_2_53():
    # 2**53 + 1 has no double; numpy would divide 2**53 by 3 instead
    total = 2**53 + 1
    want = total / 3
    assert float(total) / 3 != want
    col = MetricsCollector([InstanceId(0, 0)])
    col.record_client(0, 0, total, 3)
    col.record_stage(0, 0, total, 3)
    assert col.client_records.slowdowns().tolist() == [want]
    assert col.client_records[0].slowdown == want
    report = col.finalize_report(total, total, 1, "round_robin", "fcfs")
    assert report.client_slowdown == report.stage_slowdown == {"mean": want, "p50": want, "p99": want}
    buf = io.StringIO()
    write_requests_csv([col.client_records, col.stage_records], buf)
    assert buf.getvalue().splitlines()[1:] == [
        f"0,{scope},0,{total},{total},3,{total - 3},{want!r}" for scope in ("client", "stage")
    ]


def random_records(col, rng, n, scope="stage"):
    """n records of random times; a total of 1 to 10**7 us over an exec it holds."""
    record = col.record_stage if scope == "stage" else col.record_client
    created = rng.integers(0, 10**9, size=n).tolist()
    total = rng.integers(1, 10**7, size=n).tolist()
    exec_time = [int(e) for e in rng.integers(1, 10**7, size=n) % total + 1]
    for i, (a, t, e) in enumerate(zip(created, total, exec_time)):
        record(i, a, a + t, e)


@pytest.mark.parametrize("seed", range(4))
def test_report_slowdowns_are_those_of_python_int_division(seed):
    rng = np.random.default_rng(seed)
    col = MetricsCollector([InstanceId(0, 0)])
    random_records(col, rng, 3001, "client")
    random_records(col, rng, 2000, "stage")
    # past 2**53 the client scope takes the exact slow path
    col.record_client(7, 2**60, 2**60 + 2**53 + 1, 3)
    scopes = (col.client_records, col.stage_records)
    before = [list(map(list, records.columns())) for records in scopes]
    report = col.finalize_report(2**62, 2**62, 1, "round_robin", "fcfs")
    for records, got in zip(scopes, (report.client_slowdown, report.stage_slowdown)):
        vals = [(c - a) / e for _, a, c, e in zip(*records.columns())]
        assert got == {
            "mean": exact_mean(vals),
            "p50": percentile(vals, 0.50),
            "p99": percentile(vals, 0.99),
        }
    assert [list(map(list, records.columns())) for records in scopes] == before


def test_finalize_holds_one_slowdown_column():
    n = 100_000
    col = MetricsCollector([InstanceId(0, 0)])
    random_records(col, np.random.default_rng(5), n)
    tracemalloc.start()
    try:
        col.finalize_report(10**10, 10**10, 1, "round_robin", "fcfs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 512 * 1024


def test_record_past_int64_is_refused_and_leaves_columns_aligned():
    col = MetricsCollector([InstanceId(0, 0)])
    col.record_stage(1, 0, 10, 5)
    with pytest.raises(InvalidMetric, match="does not fit int64"):
        col.record_stage(2, 0, 2**63, 5)
    with pytest.raises(InvalidMetric, match="does not fit int64"):
        col.record_client(2**63, 0, 10, 5)  # fails on the first column
    assert [len(c) for c in col.stage_records.columns()] == [1, 1, 1, 1]
    assert [len(c) for c in col.client_records.columns()] == [0, 0, 0, 0]
    assert list(col.stage_records) == [RequestRecord(1, "stage", 0, 10, 5)]


def test_record_columns_widen_only_the_columns_that_overflow():
    records = RecordColumns("stage")
    rows = [
        (1, 0, 10, 5),
        (2, 2**31 - 11, 2**31 - 1, 10),  # the largest int32 values
        (3, 2**31 - 5, 2**31, 5),  # completed_at needs int64
        (4, -2**31 - 1, 0, 7),  # and created_at, below int32
        (5, 2**40, 2**40 + 2**53 + 1, 3),  # past 2**53: the exact slow path
    ]
    typecodes = ["iiii", "iiii", "iiqi", "iqqi", "iqqi"]
    for row, want in zip(rows, typecodes):
        records.append(*row)
        assert "".join(col.typecode for col in records.columns()) == want
        assert len(set(map(len, records.columns()))) == 1
    want = [RequestRecord(i, "stage", a, c, e) for i, a, c, e in rows]
    assert records == want and records[2] == want[2] and records[1:4] == want[1:4]
    assert [list(col) for col in records.columns()] == [list(col) for col in zip(*rows)]
    assert records.slowdowns().tolist() == [(c - a) / e for _, a, c, e in rows]
    with pytest.raises(InvalidMetric, match="does not fit int64"):
        records.append(6, 0, 2**63, 2**31)  # refused whole: exec does not widen
    assert "".join(col.typecode for col in records.columns()) == "iqqi"
    assert records == want
    buf = io.StringIO()
    write_requests_csv([records], buf)
    assert buf.getvalue().splitlines()[1:] == [
        f"{r.request_id},stage,{r.created_at},{r.completed_at},{r.total},{r.exec},{r.wait},{r.slowdown!r}"
        for r in want
    ]


def test_record_columns_hold_about_16_bytes_per_record():
    n = 100_000
    rng = np.random.default_rng(5)
    created = rng.integers(0, 10**9, size=n).tolist()
    total = rng.integers(1, 10**7, size=n).tolist()
    rows = [(i, a, a + t, 1 + t // 2) for i, (a, t) in enumerate(zip(created, total))]
    records = RecordColumns("stage")
    tracemalloc.start()
    try:
        for row in rows:
            records.append(*row)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # four int32 columns and their spare room; int64 columns read 32.7
    assert held / n <= 17


def test_record_columns_read_as_a_sequence_of_records():
    col = MetricsCollector([InstanceId(0, 0)])
    rows = [(i, 10 * i, 10 * i + 7, 1 + i % 7) for i in range(5000)]  # three blocks
    for row in rows:
        col.record_stage(*row)
    want = [RequestRecord(i, "stage", a, c, e) for i, a, c, e in rows]
    view = col.stage_records
    assert len(view) == 5000 and view == want and list(view) == want
    assert view[0] == want[0] and view[-1] == want[-1] and view[4096] == want[4096]
    assert view[10:20] == want[10:20] and view[::-997] == want[::-997]
    assert view != want[:-1] and view != col.client_records
    with pytest.raises(IndexError):
        operator.getitem(view, 5000)
    assert view.slowdowns().tolist() == [r.slowdown for r in want]
