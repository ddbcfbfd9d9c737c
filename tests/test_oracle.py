import ast
from pathlib import Path

import pytest

import oracles
from mssim.instance import QueueKind
from oracles import OracleStage, brute_force_schedule, mg1_fcfs_mean_wait


def test_pk_mean_wait_md1_half_load():
    # deterministic service 1000 us at rho = 0.5
    assert mg1_fcfs_mean_wait(lam=0.0005, es=1000.0, es2=1_000_000.0) == pytest.approx(500.0)


def test_pk_wait_vanishes_in_empty_system():
    assert mg1_fcfs_mean_wait(lam=1e-9, es=1000.0, es2=1_000_000.0) == pytest.approx(0.0, abs=1e-3)


def test_pk_unstable_system_rejected():
    with pytest.raises(ValueError, match="rho = 1.0000 >= 1"):
        mg1_fcfs_mean_wait(lam=0.001, es=1000.0, es2=1_000_000.0)


def test_brute_force_fcfs_back_to_back():
    stages = [
        OracleStage(arrival=0, exec_time=100, request_id=0),
        OracleStage(arrival=10, exec_time=100, request_id=1),
        OracleStage(arrival=20, exec_time=100, request_id=2),
    ]
    assert brute_force_schedule(stages, "fcfs") == [(0, 100), (100, 200), (200, 300)]


def test_brute_force_shortest_first_is_non_preemptive():
    stages = [
        OracleStage(arrival=0, exec_time=1000, request_id=0),
        OracleStage(arrival=1, exec_time=10, request_id=1),
    ]
    assert brute_force_schedule(stages, "shortest_first") == [(0, 1000), (1000, 1010)]


def test_brute_force_fair_share_interleaves():
    # slices: A 0-500, B 500-800, A 800-1300, A 1300-1500
    stages = [
        OracleStage(arrival=0, exec_time=1200, request_id=0),
        OracleStage(arrival=0, exec_time=300, request_id=1),
    ]
    assert brute_force_schedule(stages, "fair_share", quantum=500) == [(0, 1500), (500, 800)]


def test_brute_force_early_deadline_orders_by_deadline():
    stages = [
        OracleStage(arrival=0, exec_time=50, request_id=0, deadline=100),
        OracleStage(arrival=1, exec_time=50, request_id=1, deadline=60),
        OracleStage(arrival=2, exec_time=50, request_id=2, deadline=80),
    ]
    assert brute_force_schedule(stages, "eds") == [(0, 50), (50, 100), (100, 150)]


def test_brute_force_idle_gap():
    stages = [
        OracleStage(arrival=0, exec_time=10, request_id=0),
        OracleStage(arrival=100, exec_time=10, request_id=1),
    ]
    assert brute_force_schedule(stages, "fcfs") == [(0, 10), (100, 110)]


def test_brute_force_empty():
    assert brute_force_schedule([], "fcfs") == []


def test_brute_force_knows_every_queue_kind_and_no_other():
    assert set(oracles.QUEUE_KINDS) == {kind.value for kind in QueueKind}
    with pytest.raises(ValueError, match="unknown queue kind 'sf'"):
        brute_force_schedule([], "sf")


def test_oracles_import_nothing_from_mssim():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = [
        name
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    assert imported, "no imports found; the check would pass vacuously"
    assert not [name for name in imported if name.split(".")[0] == "mssim"], imported
