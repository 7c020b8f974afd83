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
