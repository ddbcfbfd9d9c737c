"""Fuzz contract of the config parser: a valid SimConfig or a ValidationError.

Documents are JSON-like values over the known top-level keys, their known
nested keys and a few unknown ones. Values mix arbitrary JSON scalars and
containers with values that are close to valid, so both outcomes occur.
"""

from hypothesis import given, settings, strategies as st

from mssim.config import FIELDS, SimConfig, config_from_dict
from mssim.errors import ValidationError

NESTED = {
    "arrival": ["mean_interarrival"],
    "exec": ["mu", "sigma", "unit"],
    "depth": ["0", "1", "2", "-1", "x"],
    "routing": ["call_probabilities", "fanout"],
    "communication": ["comm_probabilities", "fanout"],
    "queue_policy": ["kind", "quantum"],
}
UNKNOWN = ["typo", "Seed", "exec_model"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),  # includes NaN and the infinities
    st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
near_valid = st.one_of(
    st.integers(min_value=-2, max_value=5),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(
        ["fcfs", "shortest_first", "fair_share", "eds", "exds", "early_deadline",
         "round_robin", "least_connection", "greedy", "us", "ms", "5ms", "2s", "0", "1h"]
    ),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=5),
    st.just([0.5, 0.5]),
    st.just([1, 1]),
)
leaves = st.one_of(json_values, near_valid)


def value_for(key):
    if key in NESTED:
        nested = st.lists(st.sampled_from(NESTED[key] + UNKNOWN[:1]), unique=True, max_size=4)
        objects = nested.flatmap(lambda ks: st.fixed_dictionaries({k: leaves for k in ks}))
        return st.one_of(leaves, objects)
    return leaves


documents = st.one_of(
    st.lists(st.sampled_from(sorted(FIELDS) + UNKNOWN), unique=True, max_size=6).flatmap(
        lambda keys: st.fixed_dictionaries({k: value_for(k) for k in keys})
    ),
    json_values,
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_config_from_dict_returns_config_or_validation_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ValidationError as e:
        assert isinstance(e.field, str)  # the dotted path; "" for an empty key
        return
    assert isinstance(cfg, SimConfig)
    cfg.validate()
