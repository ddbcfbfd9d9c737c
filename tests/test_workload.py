import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mssim import workload
from mssim.config import DEFAULT_WEIGHTS, SimConfig
from mssim.engine import RngStream, make_streams
from mssim.errors import ConfigError, MalformedTrace, ValidationError
from mssim.model import iter_nodes, stage_count, validate_tree
from mssim.simulation import run_simulation
from mssim.workload import (
    ArrivalModel,
    CommunicationModel,
    DepthModel,
    ExecModel,
    ExecUnit,
    RoutingModel,
    TraceRow,
    WorkloadModel,
    build_client_request,
    ndtri,
    read_trace_csv,
    replay_trace,
    sample_depth,
    sample_exec_time,
    sample_interarrival,
    write_trace_csv,
)


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


def test_interarrival_mean_matches_model():
    rng = RngStream(3, "arrival")
    model = ArrivalModel(1066)
    xs = [sample_interarrival(model, rng) for _ in range(100_000)]
    assert abs(np.mean(xs) - 1066) / 1066 < 0.02


def test_interarrival_floors_at_one_microsecond():
    rng = RngStream(3, "arrival")
    model = ArrivalModel(1)
    assert all(sample_interarrival(model, rng) >= 1 for _ in range(10_000))


def test_interarrival_deterministic_per_seed():
    xs = RngStream(11, "arrival")
    ys = RngStream(11, "arrival")
    model = ArrivalModel(500)
    assert [sample_interarrival(model, xs) for _ in range(1000)] == [
        sample_interarrival(model, ys) for _ in range(1000)
    ]


def test_exec_degenerate_lognormal_is_constant():
    rng = RngStream(5, "exec")
    model = ExecModel(mu=math.log(1000), sigma=0.0, unit=ExecUnit.MICROS)
    assert {sample_exec_time(model, rng) for _ in range(100)} == {1000}


def test_exec_median_is_exp_mu():
    rng = RngStream(5, "exec")
    model = ExecModel(mu=4.13, sigma=0.8, unit=ExecUnit.MICROS)
    xs = [sample_exec_time(model, rng) for _ in range(100_000)]
    assert abs(np.median(xs) - math.exp(4.13)) / math.exp(4.13) < 0.05


def test_exec_mean_matches_lognormal_moment():
    rng = RngStream(5, "exec")
    mu, sigma = math.log(500), 1.0
    model = ExecModel(mu=mu, sigma=sigma, unit=ExecUnit.MICROS)
    xs = [sample_exec_time(model, rng) for _ in range(100_000)]
    expected = math.exp(mu + sigma**2 / 2)
    assert abs(np.mean(xs) - expected) / expected < 0.10


def test_exec_millis_unit_scales_by_1000():
    rng = RngStream(5, "exec")
    model = ExecModel(mu=math.log(2), sigma=0.0, unit=ExecUnit.MILLIS)
    assert sample_exec_time(model, rng) == 2000


def test_depth_two_point_distribution():
    rng = RngStream(7, "depth")
    model = DepthModel(outcomes=((0, 0.5), (2, 0.5)))
    xs = [sample_depth(model, rng) for _ in range(100_000)]
    assert abs(np.mean([x == 2 for x in xs]) - 0.5) < 0.01


def test_depth_degenerate():
    rng = RngStream(7, "depth")
    model = DepthModel(outcomes=((0, 1.0),))
    assert all(sample_depth(model, rng) == 0 for _ in range(1000))


def test_depth_three_outcome_frequencies():
    rng = RngStream(7, "depth")
    model = DepthModel(outcomes=((0, 0.3), (1, 0.3), (2, 0.4)))
    xs = np.array([sample_depth(model, rng) for _ in range(100_000)])
    for depth, p in model.outcomes:
        assert abs(np.mean(xs == depth) - p) < 0.01


# --- request building ---------------------------------------------------------


def test_depth_zero_request_single_stage():
    streams = make_streams(1)
    req = build_client_request(0, 100, wl(depth=((0, 1.0),)), streams)
    validate_tree(req)
    assert stage_count(req) == 1
    assert req.root_stages[0].called_by is None


def test_depth_two_fanout_one_builds_sequential_chain():
    streams = make_streams(1)
    req = build_client_request(0, 0, wl(depth=((2, 1.0),)), streams)
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
    streams = make_streams(2)
    for _ in range(200):
        req = build_client_request(0, 0, wl(n_ms=2, depth=((2, 1.0),)), streams)
        for node in iter_nodes(req):
            for child in node.children:
                assert child.target != node.target


def test_categorical_draw_does_not_depend_on_float_sum(monkeypatch):
    # caller 2 excluded from the default weights: summed left to right they
    # give 0.92, correctly rounded (sum() from Python 3.12 on) 0.9199999999999999,
    # and this draw lands on microservice 3 only with the first
    class Stub:
        def uniform(self):
            return 0.8695652173913043

    monkeypatch.setattr(workload, "sum", math.fsum, raising=False)
    assert workload._sample_distinct(DEFAULT_WEIGHTS, 1, Stub(), exclude=2) == [3]


def test_nan_weights_and_probabilities_rejected():
    with pytest.raises(ValidationError, match="routing.call_probabilities"):
        RoutingModel(call_probabilities=(math.nan, 1.0)).validate()
    with pytest.raises(ValidationError, match="depth"):
        DepthModel(outcomes=((0, math.nan),)).validate()


def test_single_microservice_with_positive_depth_rejected():
    streams = make_streams(3)
    with pytest.raises(ConfigError):
        build_client_request(0, 0, wl(n_ms=1, depth=((2, 1.0),)), streams)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sampled_trees_always_validate(seed):
    streams = make_streams(seed)
    model = wl(n_ms=4, depth=((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)), fanout=2)
    for rid in range(10):
        req = build_client_request(rid, rid * 7, model, streams)
        validate_tree(req)
        assert max(node.depth for node in iter_nodes(req)) == req.max_depth


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


def test_replay_orphan_edge_rejected():
    with pytest.raises(MalformedTrace):
        replay_trace([TraceRow(0, 0, called_ms=1, exetime=10, hops_done=1, called_by=None)])


def test_replay_depth_gap_rejected():
    rows = [
        TraceRow(0, 0, called_ms=0, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=2, exetime=10, hops_done=2, called_by=0),
    ]
    with pytest.raises(MalformedTrace):
        replay_trace(rows)


def test_replay_self_call_rejected():
    rows = [
        TraceRow(0, 0, called_ms=0, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=1, exetime=10, hops_done=1, called_by=1),
    ]
    with pytest.raises(MalformedTrace):
        replay_trace(rows)


def test_replay_ambiguous_parent_rejected():
    rows = [
        TraceRow(0, 0, called_ms=1, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=1, exetime=10, hops_done=0),
        TraceRow(0, 0, called_ms=2, exetime=10, hops_done=1, called_by=1),
    ]
    with pytest.raises(MalformedTrace):
        replay_trace(rows)


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


def test_ndtri_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    gen = np.random.Generator(np.random.PCG64(2024))
    ys = np.concatenate([
        gen.random(200_000),
        gen.random(20_000) * 0.14,  # lower tail
        1.0 - gen.random(20_000) * 0.14,  # upper tail
        10.0 ** -gen.uniform(1, 300, 20_000),  # far tail, z beyond 8
        [0.0, 1.0, 5e-324, 1e-300, math.exp(-32), math.exp(-2), 1 - math.exp(-2),
         0.5, np.nextafter(0.5, 0), np.nextafter(1.0, 0), -0.1, 1.1],
    ])
    want = special.ndtri(ys)
    got = np.array([ndtri(float(y)) for y in ys])
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
