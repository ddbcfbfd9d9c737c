import random

from mssim.gateway import (
    Registry,
    select_greedy,
    select_least_connection,
)
from mssim.instance import InstanceState, QueueKind, QueuePolicy
from mssim.model import InstanceId, Stage


def state(slot, running=None, queued=(), ms=0, at=0):
    """An FCFS instance that started a stage of `running` us at `at`, with stages of `queued` us waiting."""
    inst = InstanceState(InstanceId(ms, slot), QueuePolicy(QueueKind.FCFS))
    assert running is not None or not queued
    for exec_time in ([running] if running is not None else []) + list(queued):
        stage = Stage(request_id=0, target=ms, exec_time=exec_time, depth=0)
        stage.arrival = at
        stage.remaining = exec_time
        inst.enqueue(stage, at)
    return inst


def registry_with(ms, count):
    reg = Registry()
    for slot in range(count):
        reg.register(state(slot, ms=ms))
    return reg


def test_register_four_instances():
    reg = registry_with(0, 4)
    assert len(reg.instances(0)) == 4


def test_round_robin_cycles():
    reg = registry_with(0, 3)
    picks = [reg.select_round_robin(0).id.slot for _ in range(4)]
    assert picks == [0, 1, 2, 0]


def test_round_robin_singleton():
    reg = registry_with(0, 1)
    assert all(reg.select_round_robin(0).id.slot == 0 for _ in range(5))


def test_round_robin_cursors_are_per_microservice():
    reg = Registry()
    for ms in (0, 1):
        for slot in range(2):
            reg.register(state(slot, ms=ms))
    assert reg.select_round_robin(0).id.slot == 0
    assert reg.select_round_robin(1).id.slot == 0
    assert reg.select_round_robin(0).id.slot == 1
    assert reg.select_round_robin(1).id.slot == 1


def test_round_robin_balances_within_one():
    reg = registry_with(0, 3)
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(100):
        counts[reg.select_round_robin(0).id.slot] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_least_connection_picks_minimum():
    states = [state(0, 10, (10, 10)), state(1, 10), state(2, 10, (10,))]
    assert select_least_connection(states).id.slot == 1


def test_least_connection_tie_breaks_by_slot():
    states = [state(2, 10, (10,)), state(0, 10, (10,)), state(1, 10, (10,))]
    assert select_least_connection(states).id.slot == 0


def test_greedy_uses_queued_plus_remaining():
    states = [
        state(0, running=1000, queued=(5000,)),
        state(1, running=2000),
        state(2, running=500, queued=(3000,)),
    ]
    assert select_greedy(states, 0).id.slot == 1


def test_greedy_all_idle_tie_breaks_by_slot():
    states = [state(1), state(0), state(2)]
    assert select_greedy(states, 0).id.slot == 0


def test_greedy_prefers_small_remaining_over_queued_exec():
    states = [state(0, running=60, queued=(100,)), state(1, running=150)]
    assert select_greedy(states, 0).id.slot == 1
    assert select_least_connection(states).id.slot == 1
    states = [state(0, running=10, queued=(10, 10)), state(1, running=1000)]
    assert select_greedy(states, 0).id.slot == 0
    assert select_least_connection(states).id.slot == 1


def test_greedy_counts_progress_of_running_stage():
    states = [state(0, running=1000, at=0), state(1, running=800, at=300)]
    # backlogs at t=300: 1000 - 300 = 700 against 800
    assert select_greedy(states, 300).id.slot == 0


def test_selection_invariant_under_permutation():
    rng = random.Random(5)
    states = [
        state(s, running=1 + rng.randrange(5000),
              queued=[1 + rng.randrange(5000) for _ in range(rng.randrange(4))])
        for s in range(6)
    ]
    lc = select_least_connection(states)
    gr = select_greedy(states, 0)
    for _ in range(10):
        rng.shuffle(states)
        assert select_least_connection(states) is lc
        assert select_greedy(states, 0) is gr
