import numpy as np
import pytest
from hypothesis import given, strategies as st

from mssim.engine import Engine, Event, EventKind, RngStream, make_streams
from mssim.errors import SchedulingInPast


def _collect(engine, end):
    seen = []
    engine.run_until(end, lambda ev: seen.append(ev))
    return seen


def test_events_fire_in_time_order():
    eng = Engine()
    for t in (5, 1, 3):
        eng.schedule(Event(t, EventKind.REQUEST_ARRIVAL, t))
    assert [e.payload for e in _collect(eng, 10)] == [1, 3, 5]


def test_simultaneous_events_fire_in_insertion_order():
    eng = Engine()
    eng.schedule(Event(5, EventKind.REQUEST_ARRIVAL, "e1"))
    eng.schedule(Event(5, EventKind.REQUEST_ARRIVAL, "e2"))
    assert [e.payload for e in _collect(eng, 10)] == ["e1", "e2"]


def test_scheduling_in_past_rejected():
    eng = Engine()
    eng.schedule(Event(3, EventKind.REQUEST_ARRIVAL))
    eng.run_until(3, lambda ev: None)
    with pytest.raises(SchedulingInPast):
        eng.schedule(Event(2, EventKind.REQUEST_ARRIVAL))


def test_run_until_empty_queue_returns_end():
    eng = Engine()
    assert eng.run_until(100, lambda ev: None) == 100
    assert eng.now == 100


def test_run_until_boundary_is_inclusive():
    eng = Engine()
    for t in (1, 2, 3):
        eng.schedule(Event(t, EventKind.REQUEST_ARRIVAL, t))
    assert [e.payload for e in _collect(eng, 2)] == [1, 2]
    assert eng.pending() == 1


def test_reentrant_scheduling_runs_before_later_events():
    eng = Engine()
    order = []

    def dispatch(ev):
        order.append(ev.payload)
        if ev.payload == 1:
            eng.schedule(Event(1, EventKind.REQUEST_ARRIVAL, "mid"))

    eng.schedule(Event(1, EventKind.REQUEST_ARRIVAL, 1))
    eng.schedule(Event(2, EventKind.REQUEST_ARRIVAL, 2))
    eng.run_until(5, dispatch)
    assert order == [1, "mid", 2]


def test_clock_never_decreases():
    eng = Engine()
    times = []
    for t in (4, 4, 2, 9, 2):
        eng.schedule(Event(t, EventKind.REQUEST_ARRIVAL))
    eng.run_until(10, lambda ev: times.append(eng.now))
    assert times == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_processing_order_is_fire_at_seq_lexicographic(times):
    eng = Engine()
    for i, t in enumerate(times):
        eng.schedule(Event(t, EventKind.REQUEST_ARRIVAL, (t, i)))
    seen = [ev.payload for ev in _collect(eng, 100)]
    assert seen == sorted(seen)


def test_same_seed_same_stream_identical_sequence():
    a = RngStream(123, "arrival")
    b = RngStream(123, "arrival")
    assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]


def test_buffering_does_not_change_the_sequence():
    a = RngStream(9, "exec", chunk=1)
    b = RngStream(9, "exec", chunk=4096)
    assert [a.uniform() for _ in range(500)] == [b.uniform() for _ in range(500)]


def test_different_streams_are_uncorrelated():
    streams = make_streams(7)
    n = 100_000
    xs = np.array([streams["arrival"].uniform() for _ in range(n)])
    ys = np.array([streams["exec"].uniform() for _ in range(n)])
    assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.01


def test_uniform_mean_converges():
    s = RngStream(42, "routing")
    xs = [s.uniform() for _ in range(100_000)]
    assert abs(np.mean(xs) - 0.5) < 0.01
    assert all(0.0 <= x < 1.0 for x in xs)
