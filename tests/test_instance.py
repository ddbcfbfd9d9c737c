import random

import pytest
from hypothesis import given, settings, strategies as st

from mssim.config import load_config
from mssim.engine import Engine
from mssim.errors import ConfigError
from mssim.instance import (
    FairShareState,
    InstanceState,
    QueueKind,
    QueuePolicy,
    assign_deadlines,
)
from mssim.model import ClientRequest, InstanceId, Stage, iter_nodes
from mssim.simulation import Simulation
from quantum_oracle import QuantumEngine, QuantumInstance
from test_call_counts import CONFIGS


def stage(exec_time, rid=0, arrival=0, deadline=None, target=0):
    """A stage as dispatched: nothing of it has run yet."""
    return Stage(
        request_id=rid,
        target=target,
        exec_time=exec_time,
        depth=0,
        arrival=arrival,
        deadline=deadline,
        remaining=exec_time,
    )


def instance(kind=QueueKind.FCFS, quantum=500):
    return InstanceState(InstanceId(0, 0), QueuePolicy(kind, quantum=quantum))


def enq(state, st, now):
    st.arrival = now
    return state.enqueue(st, now)


def test_enqueue_to_idle_starts_immediately():
    inst = instance()
    end = enq(inst, stage(1000), 10)
    assert end == 1010
    assert inst.current is not None


def test_enqueue_to_busy_queues_without_preemption():
    inst = instance()
    enq(inst, stage(1000, rid=0), 0)
    assert enq(inst, stage(5, rid=1), 1) is None
    assert len(inst.queue) == 1
    assert inst.current.request_id == 0


def test_fcfs_picks_earliest_arrival():
    inst = instance(QueueKind.FCFS)
    enq(inst, stage(10, rid=9, arrival=0), 0)  # starts
    enq(inst, stage(10, rid=1, arrival=1), 1)
    enq(inst, stage(10, rid=2, arrival=2), 2)
    inst.finish_slice(10)
    assert inst.current.request_id == 1


def test_shortest_first_picks_minimum_remaining():
    inst = instance(QueueKind.SHORTEST_FIRST)
    enq(inst, stage(1, rid=0), 0)  # occupies the instance
    enq(inst, stage(5000, rid=1), 0)
    enq(inst, stage(200, rid=2), 0)
    enq(inst, stage(1000, rid=3), 0)
    inst.finish_slice(1)
    assert inst.current.request_id == 2


def test_early_deadline_picks_earliest_deadline():
    inst = instance(QueueKind.EDS)
    enq(inst, stage(1, rid=0), 0)
    enq(inst, stage(10, rid=1, deadline=9000), 0)  # arrives first
    enq(inst, stage(10, rid=2, deadline=7000), 0)
    inst.finish_slice(1)
    assert inst.current.request_id == 2


def test_pick_tie_breaks_by_arrival_then_request_id():
    inst = instance(QueueKind.SHORTEST_FIRST)
    enq(inst, stage(1, rid=0), 0)
    enq(inst, stage(10, rid=7, arrival=0), 0)
    enq(inst, stage(10, rid=3, arrival=0), 0)
    inst.finish_slice(1)
    assert inst.current.request_id == 3


# the keys a queue ordered by before its order was a table, one branch per kind
OLD_KEYS = {
    QueueKind.FCFS: lambda s: (s.arrival, s.request_id),
    QueueKind.SHORTEST_FIRST: lambda s: (s.remaining, s.arrival, s.request_id),
    QueueKind.EDS: lambda s: (s.deadline, s.arrival, s.request_id),
    QueueKind.EXDS: lambda s: (s.deadline, s.arrival, s.request_id),
}
tied = st.integers(0, 2)  # few values, so that every field ties often


def owed_by_stages(inst, now):
    """The exec the stages themselves still owe at `now`: each one's
    `remaining` at the slice start, less the running slice's progress."""
    if inst.current is None:
        return 0
    queued = [s if isinstance(s, Stage) else s[-1] for s in inst.queue]
    return sum(s.remaining for s in (inst.current, *queued)) - (now - inst.slice_start)


def check_backlog(inst, now, arrived):
    """backlog(now) is what the stages owe, and what arrived less what has run."""
    assert inst.backlog(now) == owed_by_stages(inst, now) == arrived - inst.busy_time_until(now)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(OLD_KEYS)),
    # a stage's (arrival, request_id, remaining, deadline) to enqueue, or None
    # to complete the running one
    st.lists(st.one_of(st.none(), st.tuples(tied, tied, st.integers(1, 3), tied)), max_size=30),
)
def test_a_queue_pops_by_its_policy_key_then_push_order(kind, ops):
    inst = instance(kind)
    now = arrived = 0
    waiting = []  # (old key, enqueue number, stage) of each queued stage
    for pushed, op in enumerate(ops):
        if op is None:
            if inst.current is None:
                continue
            now = inst.slice_end
            inst.finish_slice(now)
            if waiting:
                expected = min(waiting, key=lambda w: w[:2])
                waiting.remove(expected)
                assert inst.current is expected[2]
            else:
                assert inst.current is None
        else:
            arrival, rid, remaining, deadline = op
            new = stage(remaining, rid=rid, arrival=arrival, deadline=deadline)
            if inst.current is not None:
                waiting.append((OLD_KEYS[kind](new), pushed, new))
            inst.enqueue(new, now)
            arrived += remaining
        check_backlog(inst, now, arrived)
    running = inst.current
    completed = []
    while inst.current is not None:
        now = inst.slice_end
        completed.append(inst.finish_slice(now)[0])
        check_backlog(inst, now, arrived)
    assert completed == ([running] if running else []) + [
        w[2] for w in sorted(waiting, key=lambda w: w[:2])
    ]
    assert inst.owed == 0


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(QueueKind)),
    st.sampled_from((1, 3, 5)),
    # per arrival: (gap since the one before, exec, deadline)
    st.lists(st.tuples(st.integers(0, 12), st.integers(1, 16), tied), min_size=1, max_size=12),
)
def test_backlog_is_the_exec_the_stages_still_owe_through_the_life_cycle(kind, quantum, arrivals):
    make = FairShareState if kind is QueueKind.FAIR_SHARE else InstanceState
    inst = make(InstanceId(0, 0), QueuePolicy(kind, quantum))
    now = arrived = 0
    for rid, (gap, exec_time, deadline) in enumerate(arrivals):
        now += gap
        # the completions up to the arrival, each before a join at its instant
        while inst.current is not None and inst.slice_end <= now:
            end = inst.slice_end
            inst.finish_slice(end)
            check_backlog(inst, end, arrived)
        check_backlog(inst, now, arrived)  # mid-slice, and for fair share mid-chain
        enq(inst, stage(exec_time, rid=rid, deadline=deadline), now)
        arrived += exec_time
        check_backlog(inst, now, arrived)
    while inst.current is not None:
        end = inst.slice_end
        inst.finish_slice(end)
        check_backlog(inst, end, arrived)
    assert inst.owed == 0 and inst.busy_accum == arrived


@pytest.mark.parametrize("kind", list(QueueKind))
def test_a_drained_run_leaves_no_exec_owed(kind):
    # an instance only adds to `owed` on enqueue, idle or not, so drift
    # in its bookkeeping would outlive the drain
    cfg = load_config(CONFIGS / "exp-fs-greedy.json")
    cfg.seed = 1
    cfg.end_time = 1_000_000
    cfg.queue_policy = QueuePolicy(kind)
    sim = Simulation(cfg)
    sim.run()
    assert all(s.current is None and not s.queue and s.owed == 0 for s in sim.instances)


def test_fair_share_inherits_the_methods_the_benchmark_tracer_wraps():
    # bench/tracer.py wraps them on InstanceState; an override would run
    # outside the wrapper's span
    assert not {"enqueue", "finish_slice", "backlog"} & FairShareState.__dict__.keys()


def test_run_to_completion_single_slice():
    inst = instance(QueueKind.FCFS)
    end = enq(inst, stage(1000), 0)
    completed, nxt = inst.finish_slice(end)
    assert completed is not None and completed.remaining == 0
    assert nxt is None
    assert inst.busy_accum == 1000


class DrivenFairShare(FairShareState):
    """A fair-share instance whose completions are queued, moved and fired on
    `engine` as `Simulation` does it; `done` holds (time, request_id) of each."""

    def __init__(self, quantum):
        super().__init__(InstanceId(0, 0), QueuePolicy(QueueKind.FAIR_SHARE, quantum))
        self.engine = Engine()
        self.done = []

    def enqueue(self, stage, now):
        end = super().enqueue(stage, now)
        if end is not None:
            if self.pending is None:
                self.pending = self.engine.schedule(end, self.complete)
            else:
                self.pending = self.engine.move(self.pending, end)
        return end

    def complete(self, _):
        now = self.engine.now
        stage, end = self.finish_slice(now)
        self.done.append((now, stage.request_id))
        self.pending = None if end is None else self.engine.schedule(end, self.complete)


def fair_share(quantum=500):
    """An engine, a fair-share instance on it, and the (time, request_id) of each completion."""
    inst = DrivenFairShare(quantum)
    return inst.engine, inst, inst.done


def test_instance_state_refuses_fair_share():
    with pytest.raises(ConfigError):
        instance(QueueKind.FAIR_SHARE)


def test_fair_share_slices_and_requeues():
    eng, inst, done = fair_share(500)
    assert enq(inst, stage(1200), 0) == 1200  # the completion, returned like any policy's
    # one event, at the completion: the boundaries at 500 and 1000 are not events
    assert eng.pending() == 1
    assert [inst.backlog(t) for t in (500, 1000)] == [700, 200]
    eng.drain()
    assert done == [(1200, 0)]
    assert inst.busy_accum == 1200


def test_fair_share_short_job_single_slice():
    eng, inst, done = fair_share(500)
    enq(inst, stage(300), 0)
    eng.drain()
    assert done == [(300, 0)]


def test_fair_share_requeue_goes_to_tail():
    eng, inst, done = fair_share(500)
    enq(inst, stage(1200, rid=0), 0)
    enq(inst, stage(300, rid=1), 0)
    # rid 0 runs to 500 and goes behind rid 1, which completes at 800
    eng.drain()
    assert done == [(800, 1), (1500, 0)]


def test_work_conservation_and_busy_accounting():
    eng, inst, done = fair_share(500)
    enq(inst, stage(700, rid=0), 0)
    enq(inst, stage(600, rid=1), 0)
    eng.drain()
    # slices 0-500 (rid 0), 500-1000 (rid 1), 1000-1200 (rid 0), 1200-1300 (rid 1)
    assert done == [(1200, 0), (1300, 1)]
    assert inst.busy_accum == inst.busy_time_until(1300) == 1300
    assert eng.now == 1300 and inst.current is None and not inst.queue


def test_backlog_mid_slice():
    inst = instance(QueueKind.FCFS)
    assert inst.backlog(0) == 0
    enq(inst, stage(1000, rid=0), 0)
    enq(inst, stage(400, rid=1), 0)
    assert inst.backlog(300) == 700 + 400
    assert len(inst.queue) == 1
    assert inst.busy_time_until(300) == 300
    # the queued stage's exec is owed until it runs
    assert inst.finish_slice(1000)[1] == 1400
    assert [inst.backlog(t) for t in (1000, 1200)] == [400, 200]
    inst.finish_slice(1400)
    assert inst.backlog(1400) == inst.owed == 0
    assert inst.busy_time_until(1400) == 1400


def test_backlog_follows_fair_share_requeues():
    eng, inst, done = fair_share(500)
    enq(inst, stage(1200, rid=0), 0)
    enq(inst, stage(700, rid=1), 0)
    assert len(inst.queue) == 1
    # at 500 rid 0 goes back with 700 left and rid 1 runs
    assert inst.backlog(600) == 700 + 600
    assert inst.busy_time_until(600) == 600
    # at 1000 rid 1 goes back with 200 left and rid 0 runs
    assert inst.backlog(1000) == 200 + 700
    eng.run_until(1000)
    assert len(inst.queue) == 1 and inst.backlog(1000) == 900
    eng.drain()
    assert done == [(1700, 1), (1900, 0)]


def test_a_join_at_a_boundary_comes_before_it_whatever_its_seq():
    # B joins at 500, A's first boundary: the boundary takes effect after
    # every event of its instant, so B runs next whether its join was
    # scheduled before A's completion was armed or after
    for join_first in (True, False):
        eng, inst, done = fair_share(500)
        a, b = stage(1200, rid=0), stage(300, rid=1)
        if join_first:
            eng.schedule(0, lambda _: enq(inst, a, 0))
            eng.schedule(500, lambda _: enq(inst, b, 500))
        else:
            def enqueue_a(_):
                enq(inst, a, 0)  # arms A's completion
                eng.schedule(500, lambda _: enq(inst, b, 500))

            eng.schedule(0, enqueue_a)
        eng.drain()
        assert done == [(800, 1), (1500, 0)], join_first


def test_a_completion_keeps_the_seq_of_its_chain_when_a_join_moves_it():
    eng, inst, done = fair_share(500)
    enq(inst, stage(1000, rid=0), 0)  # armed first, to complete at 1000
    eng.schedule(1500, lambda _: done.append("scheduled after the arm"))
    # B joins at 100 and runs 500-1000, so A's chain ends at 1500 instead
    eng.schedule(100, lambda _: enq(inst, stage(600, rid=1), 100))
    eng.drain()
    assert done == [(1500, 0), "scheduled after the arm", (1600, 1)]


def turn_orders(eng, inst, arrivals):
    """Enqueue `arrivals` on `inst`, each event scheduling the next; after
    every enqueue, the slice start and (request_id, remaining) in turn order."""
    seen = []

    def arrive(i):
        t, rid, exec_time = arrivals[i]
        enq(inst, stage(exec_time, rid=rid), t)
        turns = [(s.request_id, s.remaining) for s in (inst.current, *inst.queue)]
        seen.append((inst.slice_start, turns))
        if i + 1 < len(arrivals):
            eng.schedule(arrivals[i + 1][0], arrive, i + 1)

    eng.schedule(arrivals[0][0], arrive, 0)
    eng.drain()
    return seen


def test_fair_share_turn_order_matches_the_per_quantum_instance_after_every_join():
    # an enqueue on a boundary's instant comes before that boundary;
    # `remaining` is exec left at the slice start, queued stages included
    for seed in range(300):
        rng = random.Random(seed)
        quantum = rng.choice((1, 3, 5))
        arrivals = []
        t = 0
        for rid in range(rng.randint(1, 10)):
            t += rng.randint(0, 6)
            arrivals.append((t, rid, rng.randint(1, 16)))
        eng, inst, done = fair_share(quantum)
        seen = turn_orders(eng, inst, arrivals)

        oracle_eng, oracle_done = QuantumEngine(), []

        def finish(state):
            finished, _ = state.finish_slice(oracle_eng.now)
            oracle_done.append((oracle_eng.now, finished.request_id))

        oracle = QuantumInstance(InstanceId(0, 0), quantum, oracle_eng, finish)
        expected = turn_orders(oracle_eng, oracle, arrivals)
        assert seen == expected, seed
        assert done == oracle_done, seed


# --- deadline assignment ------------------------------------------------------


def chain_request(execs, created_at=0):
    root = Stage(request_id=0, target=0, exec_time=execs[0], depth=0)
    node = root
    for d in range(1, len(execs)):
        child = Stage(
            request_id=0, target=d % 2 + 1, exec_time=execs[d], depth=d,
            called_by=node.target,
        )
        node.children = [child]
        node = child
    return ClientRequest(request_id=0, created_at=created_at, root_stages=[root])


def deadlines(req):
    return [n.deadline for n in iter_nodes(req)]


def test_eds_depth_two_worked_example():
    req = chain_request([1000, 1000, 1000], created_at=6000)
    assign_deadlines(req, QueueKind.EDS, 3000)
    assert deadlines(req) == [7000, 8000, 9000]


def test_eds_depth_zero_gets_full_sla():
    req = chain_request([1000], created_at=6000)
    assign_deadlines(req, QueueKind.EDS, 3000)
    assert deadlines(req) == [9000]


def test_eds_single_stage_at_origin():
    req = chain_request([1000], created_at=0)
    assign_deadlines(req, QueueKind.EDS, 3000)
    assert deadlines(req) == [3000]


def test_eds_parallel_tree_divides_by_max_depth():
    # one root with a depth-1 child, plus a second root with no children:
    # the shallow root still gets the max-depth division
    deep = chain_request([100, 100])
    shallow = Stage(request_id=0, target=2, exec_time=100, depth=0)
    deep.root_stages.append(shallow)
    assign_deadlines(deep, QueueKind.EDS, 3000)
    assert shallow.deadline == deep.created_at + 1500  # sla/2, not full sla


def test_eds_requires_positive_sla():
    req = chain_request([100])
    with pytest.raises(ConfigError):
        assign_deadlines(req, QueueKind.EDS, 0)


def test_exds_proportional_worked_example():
    req = chain_request([500, 1000, 500], created_at=100)
    assign_deadlines(req, QueueKind.EXDS, 3000)
    assert deadlines(req) == [100 + 750, 100 + 2250, 100 + 3000]


def test_exds_equal_execs_collapse_to_eds():
    for execs in ([1000, 1000, 1000], [77, 77]):
        a = chain_request(list(execs), created_at=40)
        b = chain_request(list(execs), created_at=40)
        assign_deadlines(a, QueueKind.EDS, 3000)
        assign_deadlines(b, QueueKind.EXDS, 3000)
        assert deadlines(a) == deadlines(b)


def test_exds_single_stage_gets_full_sla():
    req = chain_request([123], created_at=7)
    assign_deadlines(req, QueueKind.EXDS, 3000)
    assert deadlines(req) == [3007]


def test_exds_parallel_uses_level_max_exec():
    req = chain_request([100, 300])
    sibling = Stage(request_id=0, target=2, exec_time=100, depth=1, called_by=0)
    req.root_stages[0].children.append(sibling)
    assign_deadlines(req, QueueKind.EXDS, 3000)
    # levels: max(100), max(300, 100) -> prefixes 100, 400 of total 400
    ds = deadlines(req)
    assert ds[0] == 750  # 3000 * 100/400
    assert ds[1] == 3000 and ds[2] == 3000
