import importlib
import json

import numpy as np
import pytest

from capsched.core import (
    DEFAULT_CORE_LEVELS,
    DEFAULT_MEMORY_LEVELS,
    INDEX_NAMES,
    ConfigRegion,
    OutOfRegionError,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
    canonical_json,
    round_half_up,
)


def test_round_half_up_breaks_ties_upward():
    assert round_half_up(4.5) == 5
    assert round_half_up(3.5) == 4
    assert round_half_up(4.4) == 4
    assert round_half_up(4.6) == 5
    assert round_half_up(0.0) == 0


def test_resource_spec_parse_and_key():
    assert ResourceSpec.parse("6c8g") == ResourceSpec(6, 8)
    assert ResourceSpec.parse("6,8") == ResourceSpec(6, 8)
    assert ResourceSpec(2, 16).key == "2c16g"
    assert ResourceSpec.parse(ResourceSpec(4, 6).key) == ResourceSpec(4, 6)


def test_resource_spec_rejects_bad_input():
    for text in ("6x8", "6c", "c8g", ",", ""):
        with pytest.raises(ValueError, match=f"^{text!r} is not a spec like 6c8g or 6,8$"):
            ResourceSpec.parse(text)
    with pytest.raises(ValueError):
        ResourceSpec(0, 8)
    with pytest.raises(ValueError):
        ResourceSpec(4, -1)


def test_region_enumerates_grid():
    region = ConfigRegion()
    assert region.core_levels == DEFAULT_CORE_LEVELS
    assert region.memory_levels_gb == DEFAULT_MEMORY_LEVELS
    specs = list(region.specs())
    assert len(specs) == len(DEFAULT_CORE_LEVELS) * len(DEFAULT_MEMORY_LEVELS)
    assert len(set(specs)) == len(specs)
    assert region.max_spec == ResourceSpec(max(DEFAULT_CORE_LEVELS),
                                           max(DEFAULT_MEMORY_LEVELS))


def _grid_surface(region, base, value_of):
    values = [[value_of(ResourceSpec(c, m)) for m in region.memory_levels_gb]
              for c in region.core_levels]
    return ScalingSurface(region=region, base_spec=base, values=values)


def _flat_surface(region, base, value=1.0):
    return _grid_surface(region, base, lambda s: 1.0 if s == base else value)


def _linear_surface(region, base):
    # speedup proportional to cores + memory, normalized at base
    norm = float(base.cores + base.memory_gb)
    return _grid_surface(region, base, lambda s: float(s.cores + s.memory_gb) / norm)


def test_surface_exact_on_grid_points():
    region = ConfigRegion()
    base = ResourceSpec(6, 8)
    surf = _linear_surface(region, base)
    for spec in region.specs():
        assert surf.speedup_at(spec) == pytest.approx(
            (spec.cores + spec.memory_gb) / 14.0)
    assert surf.speedup_at(base) == 1.0


def test_surface_interpolates_between_grid_points():
    region = ConfigRegion()
    base = ResourceSpec(6, 8)
    surf = _linear_surface(region, base)
    # (3, 8) sits halfway between core levels 2 and 4; the surface is
    # linear in cores + memory so the interpolated value is exact.
    got = surf.speedup_at(ResourceSpec(3, 8))
    assert got == pytest.approx((3 + 8) / 14.0)
    got = surf.speedup_at(ResourceSpec(5, 10))
    assert got == pytest.approx((5 + 10) / 14.0)


def test_surface_out_of_region_raises():
    region = ConfigRegion()
    surf = _flat_surface(region, ResourceSpec(6, 8))
    with pytest.raises(OutOfRegionError):
        surf.speedup_at(ResourceSpec(13, 8))
    with pytest.raises(OutOfRegionError):
        surf.speedup_at(ResourceSpec(6, 1))


def test_surface_rebase_rescales_to_new_base():
    region = ConfigRegion()
    surf = _linear_surface(region, ResourceSpec(6, 8))
    rebased = surf.rebase(ResourceSpec(2, 4))
    assert rebased.base_spec == ResourceSpec(2, 4)
    assert rebased.speedup_at(ResourceSpec(2, 4)) == 1.0
    # ratios between configs survive rebasing
    a, b = ResourceSpec(4, 8), ResourceSpec(8, 12)
    assert (rebased.speedup_at(b) / rebased.speedup_at(a)
            == pytest.approx(surf.speedup_at(b) / surf.speedup_at(a)))


def test_surface_monotone_detection():
    region = ConfigRegion()
    base = ResourceSpec(6, 8)
    good = _linear_surface(region, base)
    assert good.is_monotone()
    values = good.values.copy()
    values[-1, -1] = 0.1  # biggest config (12c16g) suddenly slowest
    bad = ScalingSurface(region=region, base_spec=base, values=values)
    assert not bad.is_monotone()


def test_surface_json_roundtrip():
    region = ConfigRegion()
    surf = _linear_surface(region, ResourceSpec(6, 8))
    clone = ScalingSurface.from_json(region, surf.to_json())
    assert clone == surf


def test_index_vector_array_order_is_stable():
    values = [float(i) for i in range(len(INDEX_NAMES))]
    vec = SystemIndexVector.from_array(np.array(values))
    arr = vec.as_array()
    assert list(arr) == values
    for i, name in enumerate(INDEX_NAMES):
        assert getattr(vec, name) == values[i]


def test_index_vector_json_roundtrip():
    values = np.arange(len(INDEX_NAMES), dtype=float) * 1.5
    vec = SystemIndexVector.from_array(values)
    clone = SystemIndexVector.from_json(vec.to_json())
    assert clone == vec


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"d": 2, "c": 3}}
    assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == text


@pytest.mark.parametrize("module", ["core", "estimator", "planner", "workload_synth"])
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"capsched.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from capsched.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_canonical_json_is_the_indented_sorted_dump(rows):
    # 3000 rows are more tokens than one batch of the chunked join.
    rng = np.random.default_rng(rows)
    obj = {"rows": [{"id": i, "x": float(rng.normal()), "name": f"wé{i}",
                     "tags": [None, True, {"b": 1, "a": []}]} for i in range(rows)],
           "empty": {}}
    want = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(obj) == want
    assert canonical_json("x") == '"x"\n'
