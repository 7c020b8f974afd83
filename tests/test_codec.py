from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import pytest

from sermtl.codec import from_dict
from sermtl.experiment import PipelineConfig
from sermtl.mtl import MTLNetworkConfig


@dataclass(frozen=True)
class _Inner:
    sizes: tuple[int, ...]
    label: str | None


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    items: list[_Inner]
    table: dict[str, int]


def test_round_trip_through_json_rebuilds_nested_and_tuples():
    value = _Outer(inner=_Inner((1, 2), None), items=[_Inner((3,), "a")], table={"k": 1})
    again = from_dict(_Outer, json.loads(json.dumps(asdict(value))))
    assert again == value
    assert isinstance(again.inner.sizes, tuple) and isinstance(again.items[0], _Inner)


def test_pipeline_config_round_trip():
    config = PipelineConfig(network=MTLNetworkConfig(trunk="dnn", context_frames=11),
                            group_key="corpus_naturalness")
    assert from_dict(PipelineConfig, json.loads(json.dumps(asdict(config)))) == config


def test_unknown_and_missing_keys_named():
    with pytest.raises(ValueError, match=r"_Inner: unknown key 'sizse', missing key 'sizes'"):
        from_dict(_Inner, {"sizse": [1], "label": None})


def test_nested_unknown_key_named():
    data = asdict(PipelineConfig())
    data["training"]["dropout"] = 0.5
    with pytest.raises(ValueError, match="TrainConfig: unknown key 'dropout'"):
        from_dict(PipelineConfig, data)


def test_non_object_rejected():
    with pytest.raises(ValueError, match="expected an object"):
        from_dict(_Inner, [1, 2])


@dataclass(frozen=True)
class _Typed:
    count: int
    rate: float
    name: str
    maybe: float | None
    grid: list[list[int]]
    table: dict[str, float | None]
    free: dict


_TYPED = {"count": 3, "rate": 0.5, "name": "a", "maybe": None, "grid": [[1, 2]],
          "table": {"x": 1.5, "y": None}, "free": {"any": [True, "b"]}}


def test_values_of_their_annotated_types_decode():
    assert from_dict(_Typed, _TYPED) == _Typed(3, 0.5, "a", None, [[1, 2]], {"x": 1.5, "y": None},
                                               {"any": [True, "b"]})
    # a float takes an integer, and X | None takes an X
    again = from_dict(_Typed, {**_TYPED, "rate": 2, "maybe": 1, "table": {"x": 0}})
    assert (again.rate, again.maybe, again.table) == (2, 1, {"x": 0})


@pytest.mark.parametrize("key, value, named", [
    ("count", 3.0, "key 'count': expected int, got float"),
    ("count", True, "key 'count': expected int, got bool"),
    ("count", "3", "key 'count': expected int, got str"),
    ("rate", "0.5", "key 'rate': expected float, got str"),
    ("rate", False, "key 'rate': expected float, got bool"),
    ("rate", None, "key 'rate': expected float, got NoneType"),
    ("name", 1, "key 'name': expected str, got int"),
    ("maybe", [], "key 'maybe': expected float, got list"),
    ("grid", [[1, 2.5]], "key 'grid': expected int, got float"),
    ("grid", [1], "key 'grid': expected list, got int"),
    ("grid", {}, "key 'grid': expected list, got dict"),
    ("table", {"x": "1"}, "key 'table': expected float, got str"),
    ("table", [], "key 'table': expected dict, got list"),
    ("free", [], "key 'free': expected dict, got list"),
])
def test_a_value_of_another_type_is_named_by_class_and_key(key, value, named):
    with pytest.raises(ValueError) as raised:
        from_dict(_Typed, {**_TYPED, key: value})
    assert str(raised.value) == f"_Typed: {named}"


def test_nested_value_of_another_type_named_by_its_class():
    data = asdict(PipelineConfig())
    data["network"]["layer_sizes"] = [4, 4.0]
    with pytest.raises(ValueError) as raised:
        from_dict(PipelineConfig, data)
    assert str(raised.value) == "MTLNetworkConfig: key 'layer_sizes': expected int, got float"
