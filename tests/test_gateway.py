import random

import pytest

from mssim.errors import DuplicateInstance, NoActiveInstance
from mssim.gateway import (
    InstanceLoadView,
    Registry,
    select_greedy,
    select_least_connection,
)
from mssim.model import InstanceId


def registry_with(ms, count):
    reg = Registry()
    for slot in range(count):
        reg.register(InstanceId(ms, slot))
    return reg


def view(slot, queued=0, exec_sum=0, remaining=0, ms=0):
    return InstanceLoadView(
        instance=InstanceId(ms, slot),
        queued_count=queued,
        queued_exec_sum=exec_sum,
        current_remaining=remaining,
    )


def test_register_four_instances():
    reg = registry_with(0, 4)
    assert len(reg.instances(0)) == 4


def test_register_duplicate_rejected():
    reg = registry_with(0, 1)
    with pytest.raises(DuplicateInstance):
        reg.register(InstanceId(0, 0))


def test_round_robin_cycles():
    reg = registry_with(0, 3)
    picks = [reg.select_round_robin(0).slot for _ in range(4)]
    assert picks == [0, 1, 2, 0]


def test_round_robin_singleton():
    reg = registry_with(0, 1)
    assert all(reg.select_round_robin(0).slot == 0 for _ in range(5))


def test_round_robin_cursors_are_per_microservice():
    reg = Registry()
    for ms in (0, 1):
        for slot in range(2):
            reg.register(InstanceId(ms, slot))
    assert reg.select_round_robin(0).slot == 0
    assert reg.select_round_robin(1).slot == 0
    assert reg.select_round_robin(0).slot == 1
    assert reg.select_round_robin(1).slot == 1


def test_round_robin_no_instances():
    reg = Registry()
    with pytest.raises(NoActiveInstance):
        reg.select_round_robin(9)


def test_round_robin_balances_within_one():
    reg = registry_with(0, 3)
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(100):
        counts[reg.select_round_robin(0).slot] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_least_connection_picks_minimum():
    views = [view(0, queued=2), view(1, queued=0), view(2, queued=1)]
    assert select_least_connection(views).slot == 1


def test_least_connection_tie_breaks_by_slot():
    views = [view(2, queued=1), view(0, queued=1), view(1, queued=1)]
    assert select_least_connection(views).slot == 0


def test_greedy_uses_queued_plus_remaining():
    views = [
        view(0, exec_sum=5000, remaining=1000),
        view(1, exec_sum=2000, remaining=0),
        view(2, exec_sum=3000, remaining=500),
    ]
    assert select_greedy(views).slot == 1


def test_greedy_all_idle_tie_breaks_by_slot():
    views = [view(1), view(0), view(2)]
    assert select_greedy(views).slot == 0


def test_greedy_prefers_small_remaining_over_queued_exec():
    views = [view(0, queued=1, exec_sum=100), view(1, remaining=50)]
    assert select_greedy(views).slot == 1


def test_selection_invariant_under_view_permutation():
    rng = random.Random(5)
    views = [view(s, queued=rng.randrange(4), exec_sum=rng.randrange(5000)) for s in range(6)]
    lc = select_least_connection(views)
    gr = select_greedy(views)
    for _ in range(10):
        rng.shuffle(views)
        assert select_least_connection(views) == lc
        assert select_greedy(views) == gr


def test_empty_views_rejected():
    with pytest.raises(NoActiveInstance):
        select_least_connection([])
    with pytest.raises(NoActiveInstance):
        select_greedy([])
