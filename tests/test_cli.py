import json

import pytest

import row_replay
from mssim.cli import _QUEUE_FLAGS, cli_main
from mssim.config import (
    SimConfig,
    config_from_dict,
    load_config,
    parse_duration,
)
from mssim.engine import Engine
from mssim.errors import MalformedTrace, ParseError, ValidationError
from mssim.gateway import LbPolicy
from mssim.instance import QueueKind, QueuePolicy
from mssim.metrics import BLOCK
from mssim.workload import TraceRow, write_trace_csv

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


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- config parsing ---------------------------------------------------------


def test_parse_duration_units():
    assert parse_duration(123) == 123
    assert parse_duration("42us") == 42
    assert parse_duration("3 ms") == 3000
    assert parse_duration("2s") == 2_000_000
    assert parse_duration("1h") == 3_600_000_000
    with pytest.raises(ValidationError):
        parse_duration("five seconds")


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    cfg = load_config(path)
    assert cfg == SimConfig()


def test_defaults_match_documented_values():
    cfg = SimConfig()
    assert cfg.end_time == 24 * 3_600_000_000
    assert cfg.arrival.mean_interarrival == 1066
    assert (cfg.exec_model.mu, cfg.exec_model.sigma) == (4.13, 3.48)
    assert cfg.microservices == (4, 2, 1, 1)
    assert cfg.sla == 4_000_000
    assert cfg.lb_policy is LbPolicy.ROUND_ROBIN
    assert cfg.queue_policy.kind is QueueKind.FCFS


def test_bad_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(path)


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown config key"):
        config_from_dict({"tpyo": 1})


def test_routing_weights_must_sum_to_one():
    doc = dict(SMALL, routing={"call_probabilities": [0.9, 0.9]})
    with pytest.raises(ValidationError):
        config_from_dict(doc)


def test_depth_needs_two_microservices():
    doc = dict(SMALL, microservices=[1], routing={"call_probabilities": [1.0]},
               communication={"comm_probabilities": [1.0]})
    with pytest.raises(ValidationError):
        config_from_dict(doc)


def test_weights_default_to_equal_when_ms_count_changes():
    doc = dict(SMALL)
    cfg = config_from_dict(doc)
    assert cfg.routing.call_probabilities == (0.5, 0.5)
    assert cfg.communication.comm_probabilities == (0.5, 0.5)


def test_queue_policy_object_with_quantum():
    doc = dict(SMALL, queue_policy={"kind": "fair_share", "quantum": "1ms"})
    cfg = config_from_dict(doc)
    assert cfg.queue_policy.kind is QueueKind.FAIR_SHARE
    assert cfg.queue_policy.quantum == 1000


@pytest.mark.parametrize("kind", list(QueueKind))
def test_every_queue_kind_parses_by_name(kind):
    cfg = config_from_dict(dict(SMALL, queue_policy=kind.value))
    assert cfg.queue_policy == QueuePolicy(kind)


def test_queue_flags_alias_one_kind_each():
    assert sorted(k.value for k in _QUEUE_FLAGS.values()) == sorted(k.value for k in QueueKind)


# -- CLI --------------------------------------------------------------------


def test_cli_happy_path_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = cli_main(["--config", cfg, "--out", str(out), "--emit-ecdf"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 11
    assert report["client_requests"] > 0
    lines = (out / "requests.csv").read_text().splitlines()
    assert lines[0] == "request_id,scope,created_at,completed_at,total_us,exec_us,wait_us,slowdown"
    assert len(lines) == 1 + report["client_requests"] + report["stage_requests"]
    assert (out / "ecdf_slowdown.csv").exists()


def test_cli_deep_call_tree_runs(tmp_path):
    """Call trees 3000 hops deep are built and walked without recursion."""
    cfg = write_config(tmp_path, {"end_time": "3ms", "depth": {"3000": 1.0}, "microservices": [1, 1]})
    out = tmp_path / "out"
    assert cli_main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["client_requests"] > 0
    assert report["stage_requests"] == 3001 * report["client_requests"]


def test_cli_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = cli_main([
        "--config", cfg, "--out", str(out),
        "--seed", "99", "--lb", "greedy", "--queue", "ed-exds",
        "--end-time", "500ms",
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99
    assert report["lb_policy"] == "greedy"
    assert report["queue_policy"] == "exds"
    assert report["end_time_us"] == 500_000


def test_cli_unknown_flag_exits_1(capsys):
    assert cli_main(["--frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_bad_choice_exits_1():
    assert cli_main(["--lb", "dealer"]) == 1


def test_cli_missing_config_file_exits_1(tmp_path):
    assert cli_main(["--config", str(tmp_path / "nope.json")]) == 1


# case id -> (config keys overriding SMALL, dotted field the error must name)
INVALID = {
    "end_time-zero": ({"end_time": 0}, "end_time"),
    "arrival-not-object": ({"arrival": 5}, "arrival"),
    "exec-not-object": ({"exec": 3}, "exec"),
    "routing-not-object": ({"routing": 7}, "routing"),
    "exec-mu-string": ({"exec": {"mu": "abc"}}, "exec.mu"),
    "exec-mu-nan": ({"exec": {"mu": float("nan")}}, "exec.mu"),
    "exec-mu-inf": ({"exec": {"mu": float("inf")}}, "exec.mu"),
    "exec-unknown-key": ({"exec": {"mu": 1.0, "scale": 2}}, "exec.scale"),
    "routing-weights-string": ({"routing": {"call_probabilities": "ab"}},
                               "routing.call_probabilities"),
    "communication-fanout-string": ({"communication": {"fanout": "x"}},
                                    "communication.fanout"),
    "seed-negative": ({"seed": -1}, "seed"),
    "seed-bool": ({"seed": True}, "seed"),
    "end_time-bool": ({"end_time": True}, "end_time"),
    "end_time-5000-digits": ({"end_time": "9" * 5000}, "end_time"),
    "end_time-over-2^62": ({"end_time": 2**62 + 1}, "end_time"),
    # a gap is at most about 37 means; a mean near 1e308 us overflows the float
    "arrival-mean-over-2^62": ({"arrival": {"mean_interarrival": 2**62 + 1}},
                               "arrival.mean_interarrival"),
    # the largest exec is exp(mu + 8.21 sigma) ms: exp(1000) overflows a float,
    # and exp(50) ms is about 5.2e24 us, past 2**62
    "exec-mu-1000-overflows": ({"end_time": "10ms", "exec": {"mu": 1000, "sigma": 0}},
                               "exec"),
    "exec-mu-50-over-2^62": ({"end_time": "10ms", "exec": {"mu": 50, "sigma": 0}},
                               "exec"),
    "microservices-bool": ({"microservices": [2, True]}, "microservices[1]"),
    "depth-not-integer": ({"depth": {"one": 1.0}}, "depth.one"),
    "queue-kind-old-name": ({"queue_policy": "early_deadline"}, "queue_policy"),
    "queue-quantum-zero": ({"queue_policy": {"kind": "eds", "quantum": 0}},
                           "queue_policy.quantum"),
    "trace_in-int": ({"trace_in": 5}, "trace_in"),
    "routing-fanout-too-large": (
        {"routing": {"call_probabilities": [0.5, 0.5], "fanout": 3}}, "routing.fanout"
    ),
    # depth 2: every caller has a positive weight, leaving one callee
    "communication-fanout-too-large": (
        {"communication": {"comm_probabilities": [0.5, 0.5], "fanout": 2}},
        "communication.fanout",
    ),
}


@pytest.mark.parametrize("bad,field", INVALID.values(), ids=INVALID.keys())
def test_cli_invalid_config_exits_1(tmp_path, capsys, bad, field):
    cfg = write_config(tmp_path, dict(SMALL, **bad))
    assert cli_main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"], ids=["not-utf8", "5000-digit-int"]
)
def test_cli_unparsable_config_exits_1(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--end-time", "0"], ["--end-time", "1x"]])
def test_cli_invalid_override_exits_1(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, SMALL)
    assert cli_main(["--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flags[0]}:")


def test_communication_fanout_counts_only_reachable_callers():
    # depth 1 and routing only to ms 0, which has no communication weight:
    # callers keep both positive weights, so fanout 2 is possible
    doc = dict(SMALL, microservices=[1, 1, 1], depth={"0": 0.5, "1": 0.5},
               routing={"call_probabilities": [1.0, 0.0, 0.0]},
               communication={"comm_probabilities": [0.0, 0.5, 0.5], "fanout": 2})
    assert config_from_dict(doc).communication.fanout == 2
    with pytest.raises(ValidationError):
        config_from_dict(dict(doc, depth={"0": 0.5, "2": 0.5}))


def test_cli_malformed_trace_in_exits_1(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "request_id,timestamp,called_ms,exetime,hops_done,called_by\n"
        "0,0,1,1000,2,0\n",  # hops_done 2 with no ancestors
        encoding="utf-8",
    )
    cfg = write_config(tmp_path, SMALL)
    rc = cli_main(["--config", cfg, "--trace-in", str(trace), "--out", str(tmp_path / "o")])
    assert rc == 1


# row id -> (second trace row, start of the error the CLI prints)
TRACE_REFUSALS = {
    "negative-timestamp": ("1,-100,0,1000,0,", "line 3: request 1: timestamp must be >= 0"),
    "timestamp-past-int64": (f"1,{2**63},0,1000,0,", "line 3: request 1: timestamp must be"),
    "request-id-past-int64": (f"{2**63},0,0,1000,0,", f"line 3: request {2**63}: request_id does not fit"),
    "undeployed-microservice": ("1,5,2,1000,0,", "request 1: microservice 2 is not deployed"),
    "undeployed-caller": ("0,5,0,1000,1,7", "request 0: microservice 7 is not deployed"),
}


@pytest.mark.parametrize("row,error", TRACE_REFUSALS.values(), ids=TRACE_REFUSALS)
def test_cli_refuses_a_bad_trace_row_before_the_run(tmp_path, capsys, row, error):
    trace = tmp_path / "trace.csv"
    trace.write_text(
        f"request_id,timestamp,called_ms,exetime,hops_done,called_by\n0,0,1,1000,0,\n{row}\n",
        encoding="utf-8",
    )
    cfg = write_config(tmp_path, SMALL)  # two microservices
    rc = cli_main(["--config", cfg, "--trace-in", str(trace), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"config error: {error}"), err


@pytest.mark.parametrize("created_at", [900_000, 5_000_000], ids=["last-batch", "after-end-time"])
def test_cli_refuses_a_forest_defect_before_the_first_event(tmp_path, capsys, monkeypatch, created_at):
    # more than two check blocks of one-row requests, then one whose child
    # has no parent; it arrives last, so it is in the last admission batch,
    # and under "after-end-time" after the 1 s end_time, so the run would
    # never build it
    n = 2 * BLOCK + 10
    rows = [TraceRow(k, 100 * k, k % 2, 50, 0) for k in range(n)]
    rows += [TraceRow(n, created_at, 0, 50, 0), TraceRow(n, created_at, 0, 50, 1, called_by=1)]
    with pytest.raises(MalformedTrace) as want:
        row_replay.replay_trace(rows)
    trace = tmp_path / "trace.csv"
    with open(trace, "w", encoding="utf-8", newline="") as fp:
        write_trace_csv(rows, fp)
    events = []
    monkeypatch.setattr(Engine, "run_until", lambda *args: events.append(args))
    cfg = write_config(tmp_path, SMALL)
    rc = cli_main(["--config", cfg, "--trace-in", str(trace), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {want.value}\n"
    assert events == []


def test_cli_trace_round_trip(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    trace = tmp_path / "trace.csv"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["--config", cfg, "--out", str(out1), "--trace-out", str(trace)]) == 0
    assert cli_main(["--config", cfg, "--out", str(out2), "--trace-in", str(trace)]) == 0
    assert (out1 / "requests.csv").read_bytes() == (out2 / "requests.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_cli_completion_past_int64_is_a_runtime_error(tmp_path, capsys):
    # every bound holds at validation (end_time and exec at most 2**62 us),
    # but one instance queues exec times of about 2**61.9 us, so the third
    # completion passes 2**63 - 1 us, which the int64 record columns cannot hold
    horizon = 2**62
    doc = dict(
        SMALL, end_time=horizon, seed=1, arrival={"mean_interarrival": 2**58},
        exec={"mu": 42.9, "sigma": 0, "unit": "us"}, depth={"0": 1.0}, microservices=[1],
        routing={"call_probabilities": [1.0]}, communication={"comm_probabilities": [1.0]},
        utilization_interval=horizon, imbalance_interval=horizon,
    )
    cfg = write_config(tmp_path, doc)
    assert cli_main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: request ") and "does not fit int64" in err
    assert "Traceback" not in err
