"""The report's slowdown summary is streamed over the record blocks.

mean, p50 and p99 must equal, bit for bit, the exactly rounded sum over n
(taken with `fractions.Fraction`) and np.quantile(...,
method="inverted_cdf") on the whole slowdown column, for views in memory
and spilled a block at a time, and the summary of a spilled view must hold
a heap that does not grow with its records.
"""

import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mssim import metrics
from mssim.metrics import MetricsCollector
from mssim.model import InstanceId
from oracles import exact_mean


def collector(rows, spill=None):
    col = MetricsCollector([InstanceId(0, 0)])
    if spill is not None:
        col.client_records.spill(spill)
    for i, (created, completed, exec_time) in enumerate(rows):
        col.record_client(i, created, completed, exec_time)
    return col


def summary(col):
    return col.finalize_report(0, 0, 1, "round_robin", "fcfs").client_slowdown


def oracle_summary(rows):
    """The exact mean and numpy's quantiles of the slowdowns, taken by Python's int / int."""
    vals = np.array([(c - a) / e for a, c, e in rows])
    p50, p99 = np.quantile(vals, (0.50, 0.99), method="inverted_cdf").tolist()
    return {"mean": exact_mean(vals.tolist()), "p50": p50, "p99": p99}


def draw_rows(n, seed, ties, start):
    """n records of 1-2,000 us exec, a `ties` share of them without a wait (slowdown 1.0)."""
    rng = np.random.default_rng(seed)
    exec_time = rng.integers(1, 2001, n)
    wait = rng.integers(0, 50_000, n) * (rng.random(n) >= ties)
    created = start + rng.integers(0, 10**6, n)
    return list(zip(created.tolist(), (created + exec_time + wait).tolist(), exec_time.tolist()))


@st.composite
def lengths(draw, block):
    """Short lengths, lengths at the edges of 128 values and of a block, or several blocks."""
    return draw(st.one_of(
        st.integers(1, 8),
        st.sampled_from([127, 128, 129, block - 1, block, block + 1]),
        st.integers(2 * block, 5 * block + 300),
    ))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    block=st.sampled_from([3, 8, 100, 129, 512]),
    spilled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    ties=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    start=st.sampled_from([0, 2**31, 2**53]),  # 2**53: totals taken by _derived's exact slow path
)
def test_streamed_summary_equals_the_exact_oracle_bit_for_bit(data, block, spilled, seed, ties, start):
    n = data.draw(lengths(block if spilled else metrics.BLOCK), label="n")
    rows = draw_rows(n, seed, ties, start)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryFile() as spill:
        mp.setattr(metrics, "BLOCK", block)
        col = collector(rows, spill if spilled else None)
        assert len(col.client_records._flushed) == (n // block if spilled else 0)
        assert summary(col) == oracle_summary(rows)


@pytest.mark.parametrize("spilled", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 128, 129, 2048, 2049, 10_000])
def test_a_column_of_ones_sums_to_n_and_has_its_quantiles_at_one(n, spilled):
    rows = [(10 * i, 10 * i + 5, 5) for i in range(n)]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryFile() as spill:
        mp.setattr(metrics, "BLOCK", 64)
        got = summary(collector(rows, spill if spilled else None))
    assert got == oracle_summary(rows) == {"mean": 1.0, "p50": 1.0, "p99": 1.0}


@example(n=4_000, ones=2_000)  # p50 is the last of the 1.0s
@example(n=4_000, ones=1_999)  # p50 is the first of the 2.0s
@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6_000), ones=st.integers(0, 6_000))
def test_quantiles_on_a_tie_take_the_tied_value(n, ones):
    ones = min(ones, n)
    # a tie of `ones` records at 1.0, then one value repeated, then distinct values
    rows = [(0, 3, 3)] * ones + [(0, 6, 3)] * ((n - ones) // 2)
    rows += [(0, 7 + i, 3) for i in range(n - len(rows))]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryFile() as spill:
        mp.setattr(metrics, "BLOCK", 256)
        assert summary(collector(rows[::-1], spill)) == oracle_summary(rows[::-1])


def test_a_spilled_summary_holds_a_heap_that_does_not_grow_with_the_records():
    # 120k records, 60% of them at 1.0 so p50 is a tie of 72k copies, which
    # is taken without collecting them; the float64 column alone is 0.96 MB
    n = 120_000
    rows = draw_rows(n, seed=7, ties=0.6, start=0)
    want = oracle_summary(rows)
    with tempfile.TemporaryFile() as spill:
        col = collector(rows, spill)
        tracemalloc.start()
        try:
            got = summary(col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == want and want["p50"] == 1.0
    # two blocks read back, their slowdowns and keys, and the 4,096-bin
    # histograms: 0.21 MB here, and at 240k records too
    assert peak < 320 * 1024, peak
