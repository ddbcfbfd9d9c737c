import hashlib
import struct

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
import pytest
from hypothesis import given, strategies as st

from mssim.engine import _STREAM_IDS, Engine, RngStream, raw_chunks, seed_words
from mssim.errors import SchedulingInPast


def _collect(engine, end, payloads):
    """Schedule each (fire_at, payload) to record its payload; run to `end`."""
    seen = []
    for t, payload in payloads:
        engine.schedule(t, seen.append, payload)
    engine.run_until(end)
    return seen


def test_events_fire_in_time_order():
    eng = Engine()
    assert _collect(eng, 10, [(t, t) for t in (5, 1, 3)]) == [1, 3, 5]


def test_simultaneous_events_fire_in_insertion_order():
    eng = Engine()
    assert _collect(eng, 10, [(5, "e1"), (5, "e2")]) == ["e1", "e2"]


def test_scheduling_in_past_rejected():
    eng = Engine()
    eng.schedule(3, lambda payload: None)
    eng.run_until(3)
    with pytest.raises(SchedulingInPast):
        eng.schedule(2, lambda payload: None)


def test_run_until_empty_queue_returns_end():
    eng = Engine()
    assert eng.run_until(100) == 100
    assert eng.now == 100


def test_run_until_boundary_is_inclusive():
    eng = Engine()
    assert _collect(eng, 2, [(t, t) for t in (1, 2, 3)]) == [1, 2]
    assert eng.pending() == 1


def test_reentrant_scheduling_runs_before_later_events():
    eng = Engine()
    order = []

    def handler(payload):
        order.append(payload)
        if payload == 1:
            eng.schedule(1, handler, "mid")

    eng.schedule(1, handler, 1)
    eng.schedule(2, handler, 2)
    eng.run_until(5)
    assert order == [1, "mid", 2]


def test_clock_never_decreases():
    eng = Engine()
    times = []
    for t in (4, 4, 2, 9, 2):
        eng.schedule(t, lambda payload: times.append(eng.now))
    eng.run_until(10)
    assert times == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_processing_order_is_fire_at_seq_lexicographic(times):
    eng = Engine()
    seen = _collect(eng, 100, [(t, (t, i)) for i, t in enumerate(times)])
    assert seen == sorted(seen)


def test_fire_hook_sees_every_event_in_order():
    eng = Engine()
    seen, fired = [], []
    for t in (3, 1, 2):
        eng.schedule(t, seen.append, t)

    def fire(handler, payload):
        fired.append(payload)
        handler(payload)

    eng.run_until(2, fire)
    eng.drain(fire)
    assert fired == seen == [1, 2, 3]


def test_a_moved_event_keeps_its_seq():
    # moved to the instant of an event scheduled after it, it still fires first
    eng = Engine()
    seen = []
    entry = eng.schedule(3, seen.append, "moved")
    eng.schedule(7, seen.append, "later")
    assert eng.move(entry, 7) == (7, entry[1], seen.append, "moved")
    eng.drain()
    assert seen == ["moved", "later"]


def test_an_event_moved_earlier_fires_there():
    eng = Engine()
    times = []
    entry = eng.schedule(9, lambda payload: times.append((eng.now, payload)), "moved")
    eng.schedule(5, lambda payload: times.append((eng.now, payload)), "fixed")
    eng.move(entry, 2)
    eng.drain()
    assert times == [(2, "moved"), (5, "fixed")]


def test_an_event_moved_into_the_past_is_refused():
    eng = Engine()
    entry = eng.schedule(9, lambda payload: None)
    eng.run_until(4)
    with pytest.raises(SchedulingInPast):
        eng.move(entry, 3)
    assert eng.pending() == 1


def test_same_seed_same_stream_identical_sequence():
    a = RngStream(123, "arrival")
    b = RngStream(123, "arrival")
    assert [a.draw() for _ in range(1000)] == [b.draw() for _ in range(1000)]


def test_buffering_does_not_change_the_sequence():
    a = RngStream(9, "exec", chunk=1)
    b = RngStream(9, "exec", chunk=4096)
    assert [a.draw() for _ in range(500)] == [b.draw() for _ in range(500)]


def test_draws_across_chunks_match_the_generator_as_python_floats():
    for seed, name, key in ((0, "arrival", 0), (11, "communication", 4)):
        stream = RngStream(seed, name)
        n = 2 * 1024 + 100  # crosses two chunk boundaries of the default size
        xs = [stream.draw() for _ in range(n)]
        ref = Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(key,)))).random(n)
        assert xs == ref.tolist()
        assert all(type(x) is float for x in xs)


# numpy.random serves the tests only, as the oracle of the streams that
# mssim computes without importing it
SEEDS = [0, 1, 12_345, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**200 + 17]
CHUNKS = [1, 7, 31, 32, 33, 1000, 1024, 1025, 4096]


def _numpy_raw(seed, key, n):
    return PCG64(SeedSequence(entropy=seed, spawn_key=(key,))).random_raw(n)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_seeding_words_are_numpys(seed):
    for key in _STREAM_IDS.values():
        want = SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4, np.uint64)
        assert seed_words(seed, key) == want.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_and_uniforms_are_numpys_across_chunks(seed):
    for name, key in _STREAM_IDS.items():
        for chunk in CHUNKS:
            n = 3 * chunk + 1  # across three chunk boundaries
            want = _numpy_raw(seed, key, n)
            raw = raw_chunks(seed_words(seed, key), chunk)
            got = np.concatenate([next(raw) for _ in range(4)])[:n]
            assert got.dtype == np.uint64 and (got == want).all(), (name, chunk)
            draw = RngStream(seed, name, chunk=chunk).draw
            assert [draw() for _ in range(n)] == ((want >> 11) * 2.0**-53).tolist()


@given(
    st.integers(min_value=0, max_value=2**256 - 1),
    st.sampled_from(sorted(_STREAM_IDS.values())),
    st.integers(min_value=1, max_value=2100),
)
def test_any_seed_and_chunk_draw_numpys_raw_stream(seed, key, chunk):
    want = _numpy_raw(seed, key, 2 * chunk + 1)
    raw = raw_chunks(seed_words(seed, key), chunk)
    assert (np.concatenate([next(raw) for _ in range(3)])[: 2 * chunk + 1] == want).all()


@pytest.mark.parametrize("chunk", [0, -1])
def test_a_chunk_below_one_is_refused(chunk):
    # an empty chunk would leave draw() spinning over empty chunks for ever
    with pytest.raises(ValueError):
        RngStream(1, "arrival", chunk=chunk)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError):
        RngStream(-1, "arrival")


# SHA-256 of the first 4,096 uniforms of each stream at seed 1, as
# little-endian doubles. mssim computes PCG64 and SeedSequence itself
# (`engine.raw_chunks`, `engine.seed_words`), so these change only if that
# code does; the oracle tests above hold it to numpy's
STREAM_DIGESTS = {
    "arrival": "db81087c2e763f0068ddfa2b3a0ca9529630ede022b73e3e14a5a26b7a158444",
    "exec": "1b38604eb4e451514c75bd1c333bd9fe326ecb083f58cfc93b824d7c4de49a26",
    "depth": "c3408f8cff06774405c5732c5c5deb91d23d168fd90b846ad39a18ee19a413f6",
    "routing": "6ec2fab86389001f5d6a123eb8c6252a2c2d9944a9ac570272475159069af8b7",
    "communication": "d4b0e604ed77116c13eaf39a2b86b8ccec58ff52ac2067b687ce3ca6ea399773",
}


@pytest.mark.parametrize("chunk", [1, 7, 1024])
@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_the_streams_are_pinned(name, chunk):
    stream = RngStream(1, name, chunk=chunk)
    xs = struct.pack("<4096d", *(stream.draw() for _ in range(4096)))
    assert hashlib.sha256(xs).hexdigest() == STREAM_DIGESTS[name]


def test_different_streams_are_uncorrelated():
    arrival, exec_ = RngStream(7, "arrival"), RngStream(7, "exec")
    n = 100_000
    xs = np.array([arrival.draw() for _ in range(n)])
    ys = np.array([exec_.draw() for _ in range(n)])
    assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.01


def test_uniform_mean_converges():
    s = RngStream(42, "routing")
    xs = [s.draw() for _ in range(100_000)]
    assert abs(np.mean(xs) - 0.5) < 0.01
    assert all(0.0 <= x < 1.0 for x in xs)
