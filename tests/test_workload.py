import io
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mssim import workload
from mssim.config import DEFAULT_WEIGHTS, SimConfig
from mssim.engine import RngStream
from mssim.errors import ConfigError, MalformedTrace, ValidationError
from mssim.instance import QueueKind, assign_deadlines
from mssim.model import iter_nodes, stage_count
from mssim.simulation import run_simulation
from mssim.workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    Samplers,
    TraceColumns,
    TraceRow,
    WorkloadModel,
    build_client_request,
    depth_chunk,
    exec_chunk,
    interarrival_chunk,
    ndtri,
    read_trace_csv,
    replay_trace,
    write_trace_csv,
)

import row_replay
import scalar_sampling as scalar
from oracles import validate_tree


def wl(
    n_ms=2,
    depth=((0, 0.5), (2, 0.5)),
    fanout=1,
    exec_model=ExecModel(mu=math.log(1000), sigma=0.5, unit=ExecUnit.MICROS),
):
    weights = tuple(1.0 / n_ms for _ in range(n_ms))
    return WorkloadModel(
        arrival=ArrivalModel(1066),
        exec=exec_model,
        depth=DepthModel(outcomes=depth),
        routing=RoutingModel(call_probabilities=weights, fanout=fanout),
        communication=CommunicationModel(comm_probabilities=weights, fanout=fanout),
        sla=4_000_000,
    )


# --- samplers ---------------------------------------------------------------


def samples(chunk_fn, model, seed, stream, n, chunk=1024):
    """The first n samples of a stream that chunk_fn transforms."""
    draw = RngStream(seed, stream, chunk, partial(chunk_fn, model)).draw
    return [draw() for _ in range(n)]


def test_interarrival_mean_matches_model():
    xs = samples(interarrival_chunk, ArrivalModel(1066), 3, "arrival", 100_000)
    assert abs(np.mean(xs) - 1066) / 1066 < 0.02


@pytest.mark.parametrize("mean", [2**56, 2**62], ids=["below-2^62", "past-2^63"])
def test_whole_us_chunk_matches_scalar_for_huge_gaps(mean):
    """Both conversions to Python ints: int64 below 2**62, int() of each double above."""
    model = ArrivalModel(mean)
    u = [0.0, 1e-300, 2**-53, 0.1, 0.5, 0.86, 0.87, 0.99, 1 - 2**-53]
    got = list(interarrival_chunk(model, np.array(u)))
    draw = iter(u).__next__
    want = [scalar.sample_interarrival(model, draw) for _ in u]
    assert got == want and all(type(x) is int for x in got)
    assert (max(got) >= 2**63) == (mean == 2**62) and max(got) > 2**53


def test_interarrival_floors_at_one_microsecond():
    assert all(x >= 1 for x in samples(interarrival_chunk, ArrivalModel(1), 3, "arrival", 10_000))


def test_interarrival_deterministic_per_seed():
    model = ArrivalModel(500)
    assert samples(interarrival_chunk, model, 11, "arrival", 1000) == samples(
        interarrival_chunk, model, 11, "arrival", 1000
    )


def test_exec_degenerate_lognormal_is_constant():
    model = ExecModel(mu=math.log(1000), sigma=0.0, unit=ExecUnit.MICROS)
    assert set(samples(exec_chunk, model, 5, "exec", 100)) == {1000}


def test_exec_median_is_exp_mu():
    model = ExecModel(mu=4.13, sigma=0.8, unit=ExecUnit.MICROS)
    xs = samples(exec_chunk, model, 5, "exec", 100_000)
    assert abs(np.median(xs) - math.exp(4.13)) / math.exp(4.13) < 0.05


def test_exec_mean_matches_lognormal_moment():
    mu, sigma = math.log(500), 1.0
    model = ExecModel(mu=mu, sigma=sigma, unit=ExecUnit.MICROS)
    xs = samples(exec_chunk, model, 5, "exec", 100_000)
    expected = math.exp(mu + sigma**2 / 2)
    assert abs(np.mean(xs) - expected) / expected < 0.10


def test_exec_millis_unit_scales_by_1000():
    model = ExecModel(mu=math.log(2), sigma=0.0, unit=ExecUnit.MILLIS)
    assert samples(exec_chunk, model, 5, "exec", 1) == [2000]


def test_exec_draw_of_zero_is_sampled():
    # ndtri(0) is -inf; with sigma 0 the scalar draw took 0 * -inf = nan and
    # failed to round it
    u = np.array([0.0, 0.25, 0.0])
    for unit, scale in ((ExecUnit.MICROS, 1), (ExecUnit.MILLIS, 1000)):
        assert list(exec_chunk(ExecModel(math.log(7), 0.0, unit), u)) == [7 * scale] * 3
        model = ExecModel(math.log(7), 0.5, unit)
        uniform = iter(u.tolist()).__next__
        assert exec_chunk(model, u)[0] == 1
        assert list(exec_chunk(model, u)) == [scalar.sample_exec_time(model, uniform) for _ in u]


def test_depth_two_point_distribution():
    model = DepthModel(outcomes=((0, 0.5), (2, 0.5)))
    xs = samples(depth_chunk, model, 7, "depth", 100_000)
    assert abs(np.mean([x == 2 for x in xs]) - 0.5) < 0.01


def test_depth_degenerate():
    model = DepthModel(outcomes=((0, 1.0),))
    assert all(x == 0 for x in samples(depth_chunk, model, 7, "depth", 1000))


def test_depth_three_outcome_frequencies():
    model = DepthModel(outcomes=((0, 0.3), (1, 0.3), (2, 0.4)))
    xs = np.array(samples(depth_chunk, model, 7, "depth", 100_000))
    for depth, p in model.outcomes:
        assert abs(np.mean(xs == depth) - p) < 0.01


# --- chunk transforms against the scalar samplers -----------------------------

EXEC_MODELS = [
    ExecModel(mu=4.912514296647084, sigma=2.5, unit=ExecUnit.MICROS),
    ExecModel(mu=4.13, sigma=3.48, unit=ExecUnit.MILLIS),
]
# (chunk transform, model, stream, scalar sampler) for every transformed stream
TRANSFORMS = {
    "arrival": (interarrival_chunk, ArrivalModel(1066), "arrival", scalar.sample_interarrival),
    "exec-us": (exec_chunk, EXEC_MODELS[0], "exec", scalar.sample_exec_time),
    "exec-ms": (exec_chunk, EXEC_MODELS[1], "exec", scalar.sample_exec_time),
    "depth": (depth_chunk, DepthModel(((0, 0.3), (1, 0.1), (3, 0.6))), "depth",
              scalar.sample_depth),
}


@pytest.mark.parametrize("chunk_fn,model,stream,sample", TRANSFORMS.values(), ids=TRANSFORMS)
def test_chunk_transform_matches_scalar_sampler_on_a_million_draws(chunk_fn, model, stream, sample):
    n = 1_000_000
    uniform = RngStream(2024, stream).draw
    want = [sample(model, uniform) for _ in range(n)]
    assert samples(chunk_fn, model, 2024, stream, n) == want


E2 = math.exp(-2)
EDGE_UNIFORMS = [
    0.0, 2.0**-53, 5e-324, 1e-300, math.exp(-32), np.nextafter(math.exp(-32), 1), 0.5,
    E2, np.nextafter(E2, 0), np.nextafter(E2, 1),
    1 - E2, np.nextafter(1 - E2, 0), np.nextafter(1 - E2, 1),
    1 - 2.0**-53,
]


def near_half_uniforms(model, ks):
    """Uniforms (multiples of 2**-53) whose scaled exec lies within 1 ulp of k + 0.5."""
    scale = 1000.0 if model.unit is ExecUnit.MILLIS else 1.0
    found = []
    for k in ks:
        z = (math.log((k + 0.5) / scale) - model.mu) / model.sigma
        u0 = round(0.5 * math.erfc(-z / math.sqrt(2)) * 2**53)
        for u in ((u0 + j) * 2.0**-53 for j in range(-40, 41)):
            x = math.exp(model.mu + model.sigma * scalar.ndtri(u)) * scale
            if abs(x - (k + 0.5)) <= math.ulp(k + 0.5):
                found.append(u)
    return found


@pytest.mark.parametrize("model", EXEC_MODELS + [
    ExecModel(mu=math.log(1000), sigma=0.5, unit=ExecUnit.MICROS),
    ExecModel(mu=0.0, sigma=0.5, unit=ExecUnit.MILLIS),
], ids=["us", "ms", "us-narrow", "ms-narrow"])
def test_exec_transform_matches_scalar_sampler_on_edge_uniforms(model):
    near_half = near_half_uniforms(model, range(1, 5000, 7))
    assert len(near_half) >= 20
    u = EDGE_UNIFORMS + near_half
    uniform = iter(u).__next__
    want = [scalar.sample_exec_time(model, uniform) for _ in u]
    assert list(exec_chunk(model, np.array(u))) == want


def test_arrival_and_depth_transforms_match_scalar_samplers_on_edge_uniforms():
    depth = DepthModel(((0, 0.5), (2, 0.5)))
    acc = 0.0
    bounds = [acc := acc + p for _, p in depth.outcomes]
    u = EDGE_UNIFORMS + [x for b in bounds for x in (np.nextafter(b, 0), b) if x < 1]
    for chunk_fn, model, sample in ((interarrival_chunk, ArrivalModel(1066), scalar.sample_interarrival),
                                    (interarrival_chunk, ArrivalModel(1), scalar.sample_interarrival),
                                    (depth_chunk, depth, scalar.sample_depth)):
        uniform = iter(u).__next__
        assert list(chunk_fn(model, np.array(u))) == [sample(model, uniform) for _ in u]


def test_largest_normal_draw_is_the_vector_ndtri_of_the_largest_uniform():
    assert workload._Z_MAX == scalar.ndtri(1 - 2.0**-53) == ndtri(np.array([1 - 2.0**-53]))[0]


def test_picker_matches_scalar_distinct_draws():
    weights = (0.5, 0.0, 0.2, 0.1, 0.2)
    uniform = RngStream(5, "communication").draw
    picker = workload.Picker(weights, RngStream(5, "communication").draw)
    for n in range(20_000):
        exclude = (None, 0, 2, 3, 4)[n % 5]
        k = 1 + n % 3
        assert picker.distinct(k, exclude) == scalar._sample_distinct(weights, k, uniform, exclude)


def deepest(req):
    return max(node.depth for node in iter_nodes(req))


def tree(req):
    """A client request as nested tuples, stage fields included."""
    def node(st):
        return (st.request_id, st.target, st.exec_time, st.depth, st.called_by,
                tuple(node(c) for c in st.children))
    return (req.request_id, req.created_at, deepest(req), req.stages,
            req.crit_exec, tuple(node(r) for r in req.root_stages))


@st.composite
def workload_models(draw):
    n_ms = draw(st.integers(2, 6))
    def weights():
        w = draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.62, 1.0]),
                          min_size=n_ms, max_size=n_ms).filter(lambda w: sum(w) > 0))
        return tuple(x / sum(w) for x in w)
    depths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    model = WorkloadModel(
        arrival=ArrivalModel(1066),
        exec=draw(st.sampled_from([
            ExecModel(mu=4.912514296647084, sigma=2.5, unit=ExecUnit.MICROS),
            ExecModel(mu=0.5, sigma=1.5, unit=ExecUnit.MILLIS),
        ])),
        depth=DepthModel(tuple((d, 1 / len(depths)) for d in depths)),
        routing=RoutingModel(weights(), draw(st.integers(1, 3))),
        communication=CommunicationModel(weights(), draw(st.integers(1, 3))),
        sla=4_000_000,
    )
    try:
        model.validate(n_ms)
    except ValidationError:
        assume(False)
    return model


@given(workload_models(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_request_trees_match_the_scalar_builder(model, seed):
    samplers = Samplers(model, seed)
    streams = scalar.uniform_streams(seed)
    for rid in range(30):
        now = rid * 1066
        assert tree(build_client_request(rid, now, samplers)) == tree(
            scalar.build_client_request(rid, now, model, streams))


def test_chunk_size_does_not_change_samples():
    model = wl(n_ms=4, depth=((0, 0.25), (1, 0.25), (3, 0.5)), fanout=2)
    small, large = Samplers(model, 8, chunk=1), Samplers(model, 8, chunk=4096)
    for rid in range(150):
        assert small.interarrival() == large.interarrival()
        assert tree(build_client_request(rid, 0, small)) == tree(
            build_client_request(rid, 0, large))
    for chunk_fn, model, stream, _ in TRANSFORMS.values():
        assert samples(chunk_fn, model, 8, stream, 2000, chunk=1) == samples(
            chunk_fn, model, 8, stream, 2000, chunk=4096)


def test_every_sampler_stream_hands_out_python_numbers():
    # chunks are buffered as 8-byte arrays; what they hand out is a Python
    # int or float, never a numpy scalar, within a chunk and past its end
    s = Samplers(wl(), 8, chunk=16)
    streams = {
        "arrival": (s.interarrival, int),
        "exec": (s.exec_time, int),
        "depth": (s.depth, int),
        "routing": (s.routing._uniform, float),
        "communication": (s.communication._uniform, float),
    }
    for name, (draw, want) in streams.items():
        assert {type(draw()) for _ in range(40)} == {want}, name


# --- request building ---------------------------------------------------------


def test_depth_zero_request_single_stage():
    req = build_client_request(0, 100, Samplers(wl(depth=((0, 1.0),)), 1))
    validate_tree(req)
    assert stage_count(req) == 1
    assert req.root_stages[0].called_by is None


def test_depth_two_fanout_one_builds_sequential_chain():
    req = build_client_request(0, 0, Samplers(wl(depth=((2, 1.0),)), 1))
    validate_tree(req)
    assert stage_count(req) == 3
    node = req.root_stages[0]
    while node.children:
        child = node.children[0]
        assert child.called_by == node.target
        assert child.depth == node.depth + 1
        node = child


def test_communication_exclusion_renormalizes():
    # two microservices with equal weight: the child of an M-target stage is
    # always the other microservice
    samplers = Samplers(wl(n_ms=2, depth=((2, 1.0),)), 2)
    for _ in range(200):
        req = build_client_request(0, 0, samplers)
        for node in iter_nodes(req):
            for child in node.children:
                assert child.target != node.target


def test_categorical_draw_does_not_depend_on_float_sum(monkeypatch):
    # caller 2 excluded from the default weights: summed left to right they
    # give 0.92, correctly rounded (sum() from Python 3.12 on) 0.9199999999999999,
    # and this draw lands on microservice 3 only with the first
    monkeypatch.setattr(workload, "sum", math.fsum, raising=False)
    picker = workload.Picker(DEFAULT_WEIGHTS, lambda: 0.8695652173913043)
    assert picker.distinct(1, exclude=2) == [3]


def test_nan_weights_and_probabilities_rejected():
    with pytest.raises(ValidationError, match="routing.call_probabilities"):
        RoutingModel(call_probabilities=(math.nan, 1.0)).validate()
    with pytest.raises(ValidationError, match="depth"):
        DepthModel(outcomes=((0, math.nan),)).validate()


def test_single_microservice_with_positive_depth_rejected():
    with pytest.raises(ConfigError):
        build_client_request(0, 0, Samplers(wl(n_ms=1, depth=((2, 1.0),)), 3))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sampled_trees_always_validate(seed):
    samplers = Samplers(wl(n_ms=4, depth=((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)), fanout=2), seed)
    for rid in range(10):
        req = build_client_request(rid, rid * 7, samplers)
        validate_tree(req)
        # every path reaches the sampled depth
        assert {node.depth for node in iter_nodes(req) if not node.children} == {deepest(req)}


# --- trace replay and CSV I/O ------------------------------------------------


def run_trace(seed, end_time, replay=None):
    """Trace rows recorded by a small three-microservice run."""
    model = wl(n_ms=3)
    cfg = SimConfig(
        end_time=end_time, seed=seed, arrival=model.arrival, exec_model=model.exec,
        depth=model.depth, routing=model.routing, communication=model.communication,
        microservices=(2, 1, 1),
    )
    return run_simulation(cfg, replay=replay, collect_trace=True).trace_rows


def test_export_replay_export_is_identity():
    rows = run_trace(9, 50_000)
    assert len({r.request_id for r in rows}) > 20
    rows2 = run_trace(9, 50_000, replay=replay_trace(rows))
    assert rows2 == rows


def replay_shape(requests):
    """The requests as nested tuples: ids, times and counts, then every stage in child order."""
    def stage(s):
        return (s.request_id, s.target, s.exec_time, s.depth, s.called_by, [*map(stage, s.children)])
    return [
        (r.request_id, r.created_at, deepest(r), r.stages, r.crit_exec,
         [*map(stage, r.root_stages)])
        for r in requests
    ]


def by_arrival(requests):
    return sorted(requests, key=lambda r: (r.created_at, r.request_id))


def assert_replays_like_the_row_oracle(rows, end_time=2**62):
    """The replay plan admits the trees the row replay builds, or raises its error.

    `admitted` gives those created up to `end_time`, in arrival order.
    """
    try:
        want = row_replay.replay_trace(rows)
    except MalformedTrace as e:
        with pytest.raises(MalformedTrace) as got:
            replay_trace(rows)
        assert str(got.value) == str(e)
        return None
    got = list(replay_trace(rows).admitted(None, 0, end_time))
    want = [r for r in by_arrival(want) if r.created_at <= end_time]
    assert replay_shape(got) == replay_shape(want)
    for req in got:  # one request_id object per request
        assert all(s.request_id is req.request_id for s in iter_nodes(req))
    return got


@st.composite
def trace_forests(draw, defects=True):
    """Rows of a few requests, fan-out up to 3, shuffled, often with one defect if `defects`."""
    rows = []
    for rid in draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True)):
        stack = [(draw(st.integers(0, 11)), 0, None) for _ in range(draw(st.integers(1, 3)))]
        while stack:
            ms, hops, caller = stack.pop()
            # few distinct timestamps, so rows of one level often tie
            rows.append(TraceRow(rid, draw(st.integers(0, 2)), ms, draw(st.integers(1, 9)), hops, caller))
            if hops < 2:
                others = [m for m in range(12) if m != ms]
                stack.extend((draw(st.sampled_from(others)), hops + 1, ms)
                             for _ in range(draw(st.integers(0, 3))))
    rows = list(draw(st.permutations(rows)))
    i = draw(st.integers(0, len(rows) - 1))
    r = rows[i]
    defect = draw(st.sampled_from(
        ["none", "none", "drop", "dup", "gap", "self", "root caller", "no caller", "exec 0"]
        if defects else ["none"]))
    if defect == "drop":
        del rows[i]
    elif defect == "dup":
        rows.insert(draw(st.integers(0, len(rows))), r)
    elif defect == "gap":
        rows[i] = TraceRow(r.request_id, r.timestamp, r.called_ms, r.exetime, r.hops_done + 1,
                           r.called_by if r.hops_done else 0)
    elif defect == "self" and r.hops_done:
        rows[i] = TraceRow(r.request_id, r.timestamp, r.called_ms, r.exetime, r.hops_done,
                           r.called_ms)
    elif defect == "root caller":
        rows[i] = TraceRow(r.request_id, r.timestamp, r.called_ms, r.exetime, 0, 1)
    elif defect == "no caller":
        rows[i] = TraceRow(r.request_id, r.timestamp, r.called_ms, r.exetime, 1, None)
    elif defect == "exec 0":
        rows[i] = TraceRow(r.request_id, r.timestamp, r.called_ms, 0, r.hops_done, r.called_by)
    return rows


@given(trace_forests(), st.integers(-1, 3))  # timestamps are 0-2
@settings(max_examples=300, deadline=None)
def test_replay_matches_the_row_oracle_on_random_forests(rows, end_time):
    assert_replays_like_the_row_oracle(rows, end_time)


@given(
    trace_forests(defects=False),
    st.sampled_from([QueueKind.EDS, QueueKind.EXDS]),
    # from 2**53 on, sla * acc is past the doubles that hold every integer
    st.one_of(st.integers(1, 10**7), st.integers(2**53, 2**62)),
)
@settings(max_examples=100, deadline=None)
def test_replayed_deadlines_are_those_assign_deadlines_gives(rows, kind, sla):
    try:
        want = row_replay.replay_trace(rows)
    except MalformedTrace:  # two siblings share a microservice and one has children
        assume(False)
    for req in want:
        assign_deadlines(req, kind, sla)
    deadlines = lambda reqs: [[s.deadline for s in iter_nodes(r)] for r in reqs]
    got = replay_trace(rows).admitted(kind, sla, 2**62)
    assert deadlines(got) == deadlines(by_arrival(want))


def test_replay_plan_holds_at_most_12_bytes_per_trace_row():
    # ids and times that fit int32 and about 2 rows per request: 6 bytes per
    # row (exetime, called_ms, back) and 12 per request (request_id,
    # created_at, first row), each column in the narrowest type that holds it
    rows = run_trace(9, 2_000_000)
    plan = replay_trace(rows)
    assert len(rows) > 3000
    held = sum(sys.getsizeof(getattr(plan, name)) for name in plan.__slots__)
    assert held / len(rows) <= 12


def test_replay_leaves_a_callers_columns_as_they_were():
    # the set-up lets go of the columns it has sorted only where the caller
    # holds none of them; a caller's own columns keep their rows and widths
    rows = run_trace(9, 2_000_000)
    before = [(col.typecode, col.tolist()) for col in rows.columns()]
    first = replay_trace(rows)
    assert [(col.typecode, col.tolist()) for col in rows.columns()] == before
    again = replay_trace(rows)
    for name in first.__slots__:
        assert np.array_equal(getattr(first, name), getattr(again, name)), name


def test_replay_matches_the_row_oracle_on_a_recorded_trace():
    rows = run_trace(9, 50_000)
    assert len(assert_replays_like_the_row_oracle(list(rows))) > 20


@pytest.mark.parametrize("n", [128, 32_768])
def test_replay_admits_requests_past_the_narrowest_order_type(n):
    # the admission order is narrowed to int8 or int16, whose largest
    # position is then n - 1; the last request has a child row
    rows = [TraceRow(rid, rid, 0, rid + 1, 0, None) for rid in range(n)]
    rows.append(TraceRow(n - 1, n - 1, 1, 5, 1, 0))
    got = assert_replays_like_the_row_oracle(rows)
    assert len(got) == n and got[-1].stages == 2


def test_replay_orphan_edge_rejected():
    rows = [TraceRow(0, 0, called_ms=1, exetime=10, hops_done=1, called_by=None)]
    assert_replays_like_the_row_oracle(rows)
    with pytest.raises(MalformedTrace, match="hops_done 1 with called_by None"):
        replay_trace(rows)


def test_replay_depth_gap_rejected():
    rows = [
        TraceRow(0, 0, called_ms=0, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=2, exetime=10, hops_done=2, called_by=0),
    ]
    assert_replays_like_the_row_oracle(rows)
    with pytest.raises(MalformedTrace, match="no parent for hops 2 called_by 0"):
        replay_trace(rows)


@pytest.mark.parametrize("rows,hops", [
    ([TraceRow(0, 0, 1, 10, 1, called_by=0), TraceRow(0, 0, 2, 10, 2, called_by=1)], 1),
    ([TraceRow(0, 0, 1, 10, -1, called_by=0)], -1),
    ([TraceRow(0, 0, 1, 10, -2**63, called_by=0)], -2**63),
], ids=["hops-1-and-2", "hops--1", "hops-min-int64"])
def test_replay_request_without_a_root_has_no_parent(rows, hops):
    # rows come by hops_done, so the first row of a request without a
    # hops-0 row finds no level above it
    assert_replays_like_the_row_oracle(rows)
    with pytest.raises(MalformedTrace, match=f"^request 0: no parent for hops {hops} called_by 0$"):
        replay_trace(rows)


def test_replay_self_call_rejected():
    rows = [
        TraceRow(0, 0, called_ms=0, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=1, exetime=10, hops_done=1, called_by=1),
    ]
    assert_replays_like_the_row_oracle(rows)
    with pytest.raises(MalformedTrace, match="self-call edge at hops 1"):
        replay_trace(rows)


def test_replay_ambiguous_parent_rejected():
    rows = [
        TraceRow(0, 0, called_ms=1, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=1, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=2, exetime=10, hops_done=1, called_by=1),
    ]
    assert_replays_like_the_row_oracle(rows)
    with pytest.raises(MalformedTrace, match="ambiguous parent for hops 1 called_by 1"):
        replay_trace(rows)


def typecodes(view):
    return "".join(col.typecode for col in view.columns())


def test_trace_columns_widen_only_the_columns_that_overflow():
    rows = [
        (0, 2**31 - 1, 1, 10, 0, None),  # the largest int32 timestamp
        (0, 2**31, 2, 2**31 - 1, 1, 1),  # timestamp needs int64
        (-2**31 - 1, 5, 1, 2**31, 0, None),  # request_id below int32, exetime past it
        (1, 6, 0, 3, -2**31 - 1, 2),  # hops_done below int32
    ]
    cols = TraceColumns()
    for row, want in zip(rows, ["iiiiii", "iqiiii", "qqiqii", "qqiqqi"]):
        cols.append(*row)
        assert typecodes(cols) == want
        assert len(set(map(len, cols.columns()))) == 1
    want = [TraceRow(*row) for row in rows]
    assert cols == want and cols[1] == want[1] and cols[1:3] == want[1:3]
    stored = [(*row[:5], -1 if row[5] is None else row[5]) for row in rows]
    assert [list(col) for col in cols.columns()] == [list(col) for col in zip(*stored)]
    assert TraceColumns.from_rows(want) == want and typecodes(TraceColumns.from_rows(want)) == "qqiqqi"
    with pytest.raises(OverflowError):
        cols.append(2, 2**63, 2**31, 1, 0, None)  # refused whole: called_ms does not widen
    assert typecodes(cols) == "qqiqqi" and cols == want


@pytest.mark.parametrize("at", [5, 3000], ids=["first-block", "second-block"])
def test_trace_csv_reads_into_columns_as_wide_as_their_values(at):
    # blocks of 2048 records; one record holds a timestamp past int32 and a
    # request_id below it, so narrower blocks join wider columns and the
    # other way round
    records, rows = one_row_requests(5000)
    records[at] = f"{-2**31 - 1},{2**31},1,7,0,"
    rows[at] = TraceRow(-2**31 - 1, 2**31, 1, 7, 0)
    text = "\n".join([HEADER, *records]) + "\n"
    got = read_trace_csv(io.StringIO(text))
    assert typecodes(got) == "qqiiii"
    assert got == rows
    buf = io.StringIO()
    write_trace_csv(got, buf)
    assert buf.getvalue() == text
    assert typecodes(read_trace_csv(io.StringIO("\n".join([HEADER, *records[:at]])))) == "iiiiii"


def test_trace_columns_hold_about_24_bytes_per_row():
    n = 40_000
    rows = [(i // 3, 7 * i, i % 5, 1 + i % 1000, i % 3, None if i % 3 == 0 else i % 4) for i in range(n)]
    cols = TraceColumns()
    tracemalloc.start()
    try:
        for row in rows:
            cols.append(*row)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # six int32 columns and their spare room; int64 columns read 49.3
    assert held / n <= 26


def test_trace_csv_round_trip_bit_exact():
    rows = run_trace(4, 20_000)
    assert rows
    buf = io.StringIO()
    write_trace_csv(rows, buf)
    text = buf.getvalue()
    rows2 = read_trace_csv(io.StringIO(text))
    assert rows2 == rows
    buf2 = io.StringIO()
    write_trace_csv(rows2, buf2)
    assert buf2.getvalue() == text


def test_trace_csv_malformed_row_reports_line():
    text = "request_id,timestamp,called_ms,exetime,hops_done,called_by\n0,0,1,10,1,\n"
    with pytest.raises(MalformedTrace, match="line 2"):
        read_trace_csv(io.StringIO(text))


HEADER = "request_id,timestamp,called_ms,exetime,hops_done,called_by"

# name -> (bad record, part of the error after "line N: ")
BAD_RECORDS = {
    "not-an-int": ("0,x,1,10,0,", "invalid literal for int"),
    "five-fields": ("0,0,1,10,0", "expected 6 fields, got 5"),
    "exetime-0": ("0,0,1,0,0,", "exetime must be > 0"),
    "negative-timestamp": ("0,-1,1,10,0,", "timestamp must be >= 0"),
    "past-int64": (f"{2**63},0,1,10,0,", "request_id does not fit int64"),
    "root-with-caller": ("0,0,1,10,0,2", "hops_done 0 with called_by 2"),
    "root-with-caller--1": ("0,0,1,10,0,-1", "hops_done 0 with called_by -1"),
    "negative-caller": ("0,0,1,10,1,-1", "called_by -1 < 0"),
}


def one_row_requests(n):
    """n valid trace records, one depth-0 request each, and their rows."""
    rows = [TraceRow(k, 3 * k, k % 3, k + 1, 0) for k in range(n)]
    return [f"{r.request_id},{r.timestamp},{r.called_ms},{r.exetime},0," for r in rows], rows


@pytest.mark.parametrize("at", [3, 2046, 2047, 2048, 2500])
@pytest.mark.parametrize("bad", BAD_RECORDS)
def test_trace_csv_names_the_line_of_the_first_bad_record(bad, at):
    # blank records count as lines, before and after the first block's end
    # (records 2 to 2049); a second bad record comes later
    records, _ = one_row_requests(3000)
    for k in (1, 2000, 2050):
        records.insert(k, "")
    records.insert(at, BAD_RECORDS[bad][0])
    records.insert(2900, BAD_RECORDS[bad][0])
    text = "\n".join([HEADER, *records]) + "\n"
    with pytest.raises(MalformedTrace, match=f"^line {at + 2}: .*{BAD_RECORDS[bad][1]}"):
        read_trace_csv(io.StringIO(text))


def test_trace_csv_reads_across_blocks_and_blank_records():
    records, rows = one_row_requests(5000)
    for k in (0, 2047, 2048, 4000):
        records.insert(k, "")
    # a whole block of blank records, then the rest
    records[3000:3000] = [""] * 2048
    text = "\n".join([HEADER, *records]) + "\n\n"
    got = read_trace_csv(io.StringIO(text))
    assert len(got) == len(rows)
    assert got == rows


def test_trace_csv_exetime_past_2_62_reports_line():
    text = f"request_id,timestamp,called_ms,exetime,hops_done,called_by\n0,0,1,{2**62 + 1},0,\n"
    with pytest.raises(MalformedTrace, match="line 2: .*exetime"):
        read_trace_csv(io.StringIO(text))


def test_trace_csv_keeps_the_largest_exetime():
    text = f"request_id,timestamp,called_ms,exetime,hops_done,called_by\n0,0,1,{2**62},0,\n"
    rows = read_trace_csv(io.StringIO(text))
    assert rows == [TraceRow(0, 0, 1, 2**62, 0)]
    buf = io.StringIO()
    write_trace_csv(rows, buf)
    assert buf.getvalue() == text


def test_trace_csv_refuses_a_negative_caller():
    # the trace columns store a missing caller as -1
    with pytest.raises(MalformedTrace, match="called_by -1"):
        write_trace_csv([TraceRow(0, 0, 1, 10, 1, called_by=-1)], io.StringIO())


def test_ndtri_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    gen = np.random.Generator(np.random.PCG64(2024))
    ys = np.concatenate([
        gen.random(200_000),
        gen.random(20_000) * 0.14,  # lower tail
        1.0 - gen.random(20_000) * 0.14,  # upper tail
        10.0 ** -gen.uniform(1, 300, 20_000),  # far tail, z beyond 8
        [0.0, 1.0, 5e-324, 1e-300, math.exp(-32), math.exp(-2), 1 - math.exp(-2),
         0.5, np.nextafter(0.5, 0), np.nextafter(1.0, 0), -0.1, 1.1, math.nan],
    ])
    want = special.ndtri(ys)
    for got in ndtri(ys), np.array([scalar.ndtri(float(y)) for y in ys]):
        same = (got == want) | (np.isnan(got) & np.isnan(want))
        assert same.all(), ys[~same][:5]


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run(
        [sys.executable, "-c", "import mssim, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )
