import pytest
from hypothesis import given, strategies as st

from mssim.model import ClientRequest, Stage, critical_path_exec, iter_nodes, stage_count
from oracles import validate_tree


def stage(target, exec_time, depth, called_by=None, rid=0):
    return Stage(
        request_id=rid, target=target, exec_time=exec_time, depth=depth, called_by=called_by
    )


def deepest(req):
    return max(node.depth for node in iter_nodes(req))


def chain(execs, targets=None):
    """Sequential chain request: one stage per depth."""
    targets = targets or [i % 2 for i in range(len(execs))]
    root = stage(targets[0], execs[0], 0)
    node = root
    for d in range(1, len(execs)):
        child = stage(targets[d], execs[d], d, called_by=targets[d - 1])
        node.children = [child]
        node = child
    return ClientRequest(request_id=0, created_at=0, root_stages=[root])


def test_depth_zero_single_stage():
    req = chain([1000])
    assert deepest(req) == 0


def test_depth_two_chain_invokes_three_microservices():
    req = chain([1000, 1000, 1000])
    assert deepest(req) == 2
    assert stage_count(req) == 3


def test_depth_of_branching_tree():
    root = stage(0, 100, 0)
    c1 = stage(1, 100, 1, called_by=0)
    c2 = stage(2, 100, 1, called_by=0)
    g = stage(0, 100, 2, called_by=1)
    c1.children = [g]
    root.children = [c1, c2]
    req = ClientRequest(request_id=0, created_at=0, root_stages=[root])
    assert deepest(req) == 2


def test_critical_path_single_node():
    assert critical_path_exec(chain([1000])) == 1000


def test_critical_path_chain_sums():
    assert critical_path_exec(chain([1000, 2000, 1000])) == 4000


def test_critical_path_parallel_roots_takes_max():
    roots = [stage(0, 1000, 0), stage(1, 3000, 0)]
    req = ClientRequest(request_id=0, created_at=0, root_stages=roots)
    assert critical_path_exec(req) == 3000


def test_validate_accepts_well_formed_chain():
    validate_tree(chain([100, 200, 300]))


def test_validate_rejects_self_call():
    req = chain([100, 200], targets=[1, 1])
    with pytest.raises(ValueError, match="^request 0: "):
        validate_tree(req)


def test_validate_rejects_depth_gap():
    req = chain([100, 200])
    list(iter_nodes(req))[1].depth = 2
    with pytest.raises(ValueError, match="^request 0: "):
        validate_tree(req)


def test_validate_rejects_wrong_caller():
    req = chain([100, 200], targets=[0, 1])
    list(iter_nodes(req))[1].called_by = 3
    with pytest.raises(ValueError, match="^request 0: "):
        validate_tree(req)


def test_validate_rejects_root_with_caller():
    req = chain([100])
    req.root_stages[0].called_by = 2
    with pytest.raises(ValueError, match="^request 0: "):
        validate_tree(req)


@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6))
def test_chain_stage_count_is_depth_plus_one(execs):
    req = chain(execs)
    validate_tree(req)
    assert stage_count(req) == deepest(req) + 1 == len(execs)


@given(st.data())
def test_validate_rejects_random_corruption(data):
    execs = data.draw(st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=5))
    req = chain(execs)
    nodes = list(iter_nodes(req))
    victim = data.draw(st.sampled_from(nodes[1:]))
    corruption = data.draw(st.sampled_from(["depth", "caller", "self", "exec"]))
    if corruption == "depth":
        victim.depth += data.draw(st.sampled_from([-1, 1, 5]))
    elif corruption == "caller":
        victim.called_by = None
    elif corruption == "self":
        victim.target = victim.called_by
    else:
        victim.exec_time = 0
    with pytest.raises(ValueError, match="^request 0: "):
        validate_tree(req)
