"""The one JSON codec: decode's type checks and the JsonRecord round trip."""

import json
from dataclasses import fields, is_dataclass

import pytest

from capsched.core import JsonRecord, ResourceSpec, canonical_json, decode
from capsched.experiment import ExperimentConfig
from capsched.simulator import simulate_colocated
from capsched.workload_synth import observe_indexes


@pytest.mark.parametrize("tp, value, expected", [
    (float, 3, 3.0),
    (float | None, None, None),
    (int | str, "w1", "w1"),
    (int | str, 7, 7),
    (tuple[int, ...], [], ()),
    (tuple[int, float], [1, 2], (1, 2.0)),
    (ResourceSpec, {"cores": 2, "memory_gb": 4, "extra": 0}, ResourceSpec(2, 4)),
    ({"a": list, "b": dict}, {"a": [1], "b": {}, "c": 0}, {"a": [1], "b": {}}),
    (bool, False, False),
])
def test_decode_accepts_json_forms(tp, value, expected):
    got = decode(tp, value, "x")
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("tp, value, message", [
    (int, True, "x needs an integer, got true"),
    (float, False, "x needs a number, got false"),
    (int, 2.0, "x needs an integer, got 2.0"),
    (str, None, "x needs a string, got null"),
    (float | None, "high", 'x needs a number or null, got "high"'),
    (tuple[int, ...], [1, "2"], 'x[1] needs an integer, got "2"'),
    (tuple[int, int], [1], "x needs a list of 2, got [1]"),
    (ResourceSpec, [2, 4], "x needs a JSON object, got [2, 4]"),
    (ResourceSpec, {"cores": 2}, "x has no 'memory_gb'"),
    ({"a": {"b": int}}, {"a": {"b": "1"}}, 'x.a.b needs an integer, got "1"'),
    (int, "n" * 100, "x needs an integer, got \"" + "n" * 56 + "..."),
    (float, float("nan"), "x needs a finite number, got NaN"),
    (float | None, float("inf"), "x needs a finite number, got Infinity"),
    (tuple[float, ...], [1.0, float("-inf")], "x[1] needs a finite number, got -Infinity"),
    (float, 10 ** 400, "x needs a finite number, got " + "1" + "0" * 56 + "..."),
    (bool, 1, "x needs true or false, got 1"),
])
def test_decode_names_where_the_type_and_the_value(tp, value, message):
    with pytest.raises(ValueError) as info:
        decode(tp, value, "x")
    assert str(info.value) == message


def _first_instance(cls, root):
    """The first cls instance reachable from root through record fields and tuples."""
    stack = [root]
    while stack:
        obj = stack.pop()
        if type(obj) is cls:
            return obj
        if is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in fields(obj))
        elif isinstance(obj, tuple):
            stack.extend(obj)
    raise LookupError(f"no {cls.__name__} in the default world")


@pytest.fixture(scope="module")
def world(default_config, default_wset, default_bundle):
    workloads = default_wset.workloads
    indexes = observe_indexes(workloads[0], default_config.base_spec,
                              default_config.noise_sigma, default_wset.constants)
    simulation = simulate_colocated(
        [(w.workload_id, w.workload_id % 2, w.origin_spec, w.ground_truth_profile)
         for w in workloads[:6]], default_config.cluster_spec)
    return (default_config, default_wset, indexes, simulation, default_bundle)


@pytest.mark.parametrize("cls", JsonRecord.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_record_round_trips_and_checks_each_field(cls, world):
    record = _first_instance(cls, world)
    form = json.loads(canonical_json(record.to_json()))
    assert cls.from_json(form) == record
    for f in fields(cls):
        wrong = "x" if isinstance(form[f.name], list) else []
        with pytest.raises(ValueError) as info:
            cls.from_json({**form, f.name: wrong})
        assert f.name in str(info.value) and "needs" in str(info.value)
        rest = {k: v for k, v in form.items() if k != f.name}
        if cls is ExperimentConfig:
            # A config file lists only the keys it overrides.
            assert cls.from_json(rest) == record
            continue
        with pytest.raises(ValueError, match=f"has no '{f.name}'"):
            cls.from_json(rest)
