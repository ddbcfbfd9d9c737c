"""Pinned SHA-256 digests of the CLI artifacts for three (config, seed) pairs.

Determinism is the product: any change to `report.json`, `requests.csv`
or the `--trace-out` CSV shows up here and has to be declared. The pinned
values were computed at the commit before the flat `QueueKind` and the
table-driven config parser, and must hold unchanged across refactors.
The digests of the `exds-lc` trace replayed through `--trace-in` were
computed at the commit before the columnar trace reader and replay.
The `fair_share-greedy` digests were remade when the same-instant order
of quantum boundaries and completions was declared (`mssim.engine`).
Every `report.json` digest was remade when the report's means became
exactly rounded sums over their count (`math.fsum`, `mssim.metrics`).
The `exds-lc` trace digests were remade when the trace was written in
dispatch order instead of sorted by (timestamp, request_id, hops_done);
the other two traces were in that order already.
Remake them only for a declared output change.

The configs are the desk-scale experiment workload of
`tests/test_acceptance.py` with a 2 s horizon.
"""

import hashlib
import json

import pytest

from mssim.cli import cli_main

EXPERIMENT = {
    "end_time": "2s",
    "seed": 1,
    "sla": 4_000_000,
    "arrival": {"mean_interarrival": 1066},
    "exec": {"mu": 4.912514296647084, "sigma": 2.5, "unit": "us"},
    "depth": {"0": 0.5, "2": 0.5},
    "microservices": [4, 2, 1, 1],
    "routing": {"call_probabilities": [0.62, 0.18, 0.08, 0.12], "fanout": 1},
    "communication": {"comm_probabilities": [0.62, 0.18, 0.08, 0.12], "fanout": 1},
    "utilization_interval": 5_000_000,
    "imbalance_interval": 1_000_000,
    "drain": True,
}

CASES = {
    "fcfs-rr": (
        {"queue_policy": "fcfs", "lb_policy": "round_robin"},
        {
            "report.json": "eb6a95547fcf111af484612675fd9c0438b41d003bddc716190de71b37aa0fea",
            "requests.csv": "d8c96899589da02577fc38913efd3cd863e6c2661da8b3258e16eb18167190d7",
            "trace.csv": "806b948c26a0370394364d8b1bbca47b22cfad3531fbcedfd6e2fdea64dde6bf",
        },
    ),
    "fair_share-greedy": (
        {"queue_policy": {"kind": "fair_share", "quantum": 500}, "lb_policy": "greedy"},
        {
            "report.json": "fe8d6166624a77329d015574538e0d377c225c6dc5439b29cd5a37577858cd93",
            "requests.csv": "0224cc0c0806e01a6ce0368c7d5870d698249cfff268d3afd84324367592a627",
            "trace.csv": "57bae5b42a907d7ab2181fdb8820160c70fdbcf753a151eb9d1e45749eabf92d",
        },
    ),
    "exds-lc": (
        {"queue_policy": "exds", "lb_policy": "least_connection"},
        {
            "report.json": "a9051732aa1cbd0b5d0c09e2443cf847d4dc105f647af9a19b4bee3f0cca76e9",
            "requests.csv": "4d7dcb31cb698bcb6e2f51f7d748362c46bcf7bd2b223b9834082b4d8ecb51cf",
            "trace.csv": "f93cd8ca2fd25252b38ccf3778eb30d0ccd79da098c04133df62588a584db981",
        },
    ),
}


# the artifacts of replaying the exds-lc case's trace.csv under the same config
REPLAYED_EXDS_LC = {
    "report.json": "a9051732aa1cbd0b5d0c09e2443cf847d4dc105f647af9a19b4bee3f0cca76e9",
    "requests.csv": "4d7dcb31cb698bcb6e2f51f7d748362c46bcf7bd2b223b9834082b4d8ecb51cf",
    "trace.csv": "f93cd8ca2fd25252b38ccf3778eb30d0ccd79da098c04133df62588a584db981",
}


def run_and_digest(config, out, *flags):
    """Run the CLI with `config`; the digests of report.json, requests.csv and out/trace.csv."""
    trace = out / "trace.csv"
    argv = ["--config", str(config), "--out", str(out), "--trace-out", str(trace), *flags]
    assert cli_main(argv) == 0
    paths = {"report.json": out / "report.json", "requests.csv": out / "requests.csv",
             "trace.csv": trace}
    return {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}


def write_case_config(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(EXPERIMENT, **CASES[name][0])), encoding="utf-8")
    return config


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digests_are_pinned(tmp_path, name):
    config = write_case_config(tmp_path, name)
    assert run_and_digest(config, tmp_path / "out") == CASES[name][1]


def test_replayed_trace_digests_are_pinned(tmp_path):
    config = write_case_config(tmp_path, "exds-lc")
    run_and_digest(config, tmp_path / "sampled")
    replay = ["--trace-in", str(tmp_path / "sampled" / "trace.csv")]
    assert run_and_digest(config, tmp_path / "replayed", *replay) == REPLAYED_EXDS_LC
