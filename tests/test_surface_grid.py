"""Scaling surfaces as grid arrays, against the dict-based code they replaced.

The oracles below are the earlier implementations, which held a surface
as a dict from grid spec to speedup. Every comparison is exact (==), not
approximate: the floats a surface yields reach the artifacts, which must
not change by one bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from capsched.core import (
    ConfigRegion,
    InfeasibleError,
    ResourceSpec,
    ScalingSurface,
)
from capsched.planner import PlanningRequest, plan_capacity, spec_cost, surface_error
from capsched.estimator import stress_reference_tracks
from capsched.workload_synth import make_workload, raw_throughput, tabulate_surface

REGION = ConfigRegion()
SPECS = REGION.specs()
SHAPE = (len(REGION.core_levels), len(REGION.memory_levels_gb))
INTEGER_SPECS = [ResourceSpec(c, m)
                 for c in range(REGION.core_levels[0], REGION.core_levels[-1] + 1)
                 for m in range(REGION.memory_levels_gb[0], REGION.memory_levels_gb[-1] + 1)]


# --- oracles: the dict-based code ---------------------------------------

def _old_bracket(levels, value):
    if value <= levels[0]:
        return levels[0], levels[0], 0.0
    if value >= levels[-1]:
        return levels[-1], levels[-1], 0.0
    for lo, hi in zip(levels, levels[1:]):
        if lo <= value <= hi:
            t = 0.0 if hi == lo else (value - lo) / (hi - lo)
            return lo, hi, t
    raise AssertionError("unreachable")


def _old_speedup_at(speedups, spec):
    REGION.require(spec)
    got = speedups.get(spec)
    if got is not None:
        return got
    c0, c1, tc = _old_bracket(REGION.core_levels, spec.cores)
    m0, m1, tm = _old_bracket(REGION.memory_levels_gb, spec.memory_gb)
    s = speedups
    lo = s[ResourceSpec(c0, m0)] + tm * (s[ResourceSpec(c0, m1)] - s[ResourceSpec(c0, m0)])
    hi = s[ResourceSpec(c1, m0)] + tm * (s[ResourceSpec(c1, m1)] - s[ResourceSpec(c1, m0)])
    return lo + tc * (hi - lo)


def _old_rebase(speedups, new_base):
    anchor = speedups[new_base]
    rebased = {s: v / anchor for s, v in speedups.items()}
    rebased[new_base] = 1.0
    return rebased


def _old_raw_throughput(params, cores, memory_gb):
    c = min(float(cores), params.sat_cores)
    m = min(float(memory_gb), params.sat_memory)
    return c ** params.alpha * m ** params.beta


def _nested_tabulate(params, region, base_spec):
    """tabulate_surface as 42 raw_throughput calls, before it was separable."""
    base = _old_raw_throughput(params, base_spec.cores, base_spec.memory_gb)
    values = [[_old_raw_throughput(params, c, m) / base for m in region.memory_levels_gb]
              for c in region.core_levels]
    return ScalingSurface(region=region, base_spec=base_spec, values=values)


def _old_tabulate(params, base_spec):
    base = raw_throughput(params, base_spec.cores, base_spec.memory_gb)
    speedups = {}
    for spec in SPECS:
        speedups[spec] = raw_throughput(params, spec.cores, spec.memory_gb) / base
    speedups[base_spec] = 1.0
    return speedups


def _old_plan(request, speedups):
    current = _old_speedup_at(speedups, request.current_spec)
    if request.policy == "scale-up":
        threshold = request.target_speedup * current
    else:
        threshold = (1.0 - request.performance_tolerance) * current
    best = None
    best_ratio = 0.0
    for spec in SPECS:
        s = speedups[spec]
        best_ratio = max(best_ratio, s / current)
        if s >= threshold:
            key = (spec_cost(spec, request.cost_weights), spec.cores, spec.memory_gb)
            if best is None or key < best[0]:
                best = (key, spec)
    if best is None:
        raise InfeasibleError(
            f"no spec reaches {threshold / current:.3f}x of current; "
            f"best achievable is {best_ratio:.3f}x", best_speedup=best_ratio)
    return best[1]


def _old_surface_error(predicted, actual):
    total = 0.0
    for spec in SPECS:
        total += abs(predicted[spec] / actual[spec] - 1.0)
    return total / len(SPECS)


# --- inputs --------------------------------------------------------------

def _as_dict(surface):
    return dict(zip(SPECS, surface.values.ravel().tolist()))


def _random_surface(rng, monotone):
    if monotone:
        steps = rng.uniform(0.0, 0.4, size=SHAPE)
        grid = np.cumsum(np.cumsum(steps, axis=0), axis=1) + 0.2
    else:
        grid = rng.uniform(0.2, 5.0, size=SHAPE)
    base = SPECS[int(rng.integers(len(SPECS)))]
    i, j = REGION.core_levels.index(base.cores), REGION.memory_levels_gb.index(base.memory_gb)
    grid = grid / grid[i, j]
    grid[i, j] = 1.0
    return ScalingSurface(REGION, base, grid)


def _surfaces(seed, count=40):
    rng = np.random.default_rng(seed)
    return [_random_surface(rng, monotone=bool(n % 2)) for n in range(count)]


def _random_request(rng):
    current = INTEGER_SPECS[int(rng.integers(len(INTEGER_SPECS)))]
    weights = (float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0, 2)])),
               float(rng.choice([0.0, 0.25, 1.0, rng.uniform(0, 2)])))
    if rng.random() < 0.5:
        # up to 40x, far past any surface here, so some requests are infeasible
        return PlanningRequest(policy="scale-up", current_spec=current,
                               target_speedup=float(rng.uniform(1.0, 40.0)),
                               cost_weights=weights)
    return PlanningRequest(policy="scale-down", current_spec=current,
                           performance_tolerance=float(rng.uniform(0.0, 0.5)),
                           cost_weights=weights)


# --- differential tests ----------------------------------------------------

def test_speedup_at_matches_dict_lookup_at_every_integer_spec():
    for surface in _surfaces(1):
        old = _as_dict(surface)
        for spec in INTEGER_SPECS:
            got = surface.speedup_at(spec)
            assert type(got) is float
            assert got == _old_speedup_at(old, spec), spec


def test_speedup_at_keeps_the_interior_level_weight_of_one():
    # 3c8g: cores off the grid, memory on the interior level 8, which
    # brackets as (6, 8) with weight 1.0, not as the level itself.
    surface = _surfaces(2, count=1)[0]
    for c in (3, 5, 7, 9, 11):
        for m in REGION.memory_levels_gb[1:-1]:
            assert surface.speedup_at(ResourceSpec(c, m)) == _old_speedup_at(
                _as_dict(surface), ResourceSpec(c, m))


def test_rebase_matches_dict_rebase_at_every_grid_base():
    for surface in _surfaces(3, count=10):
        old = _as_dict(surface)
        for base in SPECS:
            rebased = surface.rebase(base)
            assert rebased.base_spec == base
            assert _as_dict(rebased) == _old_rebase(old, base)


def test_tabulate_surface_matches_dict_tabulation(small_wset):
    rng = np.random.default_rng(4)
    params = [w.params for w in small_wset.workloads]
    params += [replace(p, alpha=float(rng.uniform(0.05, 1.2)),
                       beta=float(rng.uniform(0.05, 1.2)),
                       sat_cores=float(rng.uniform(1.0, 14.0)),
                       sat_memory=float(rng.uniform(1.0, 18.0))) for p in params]
    for p in params:
        for base in SPECS:
            assert _as_dict(tabulate_surface(p, REGION, base)) == _old_tabulate(p, base)


def test_separable_tabulation_matches_nested_calls(default_config, default_wset):
    archetypes = default_wset.archetypes
    jittered = [make_workload(a, n, 1000 + n, ResourceSpec(4, 6), REGION,
                              default_wset.constants, default_config.base_spec,
                              surface_noise=0.05, footprint_noise=0.05,
                              reference_tracks=stress_reference_tracks(default_wset.constants)
                              ).params for n, a in enumerate(archetypes)]
    assert all(j.alpha != a.params.alpha for j, a in zip(jittered, archetypes))
    params = [a.params for a in archetypes] + jittered
    # saturation below the first grid level, between levels and past the last
    params += [replace(params[0], sat_cores=sc, sat_memory=sm)
               for sc, sm in ((1.0, 1.0), (1.5, 3.0), (7.0, 10.0), (16.0, 20.0), (40.0, 90.0))]
    other = ConfigRegion(core_levels=(1, 3, 5, 9, 16, 24), memory_levels_gb=(1, 3, 4, 32))
    cases = [(REGION, base) for base in (ResourceSpec(6, 8), ResourceSpec(1, 2),
                                         ResourceSpec(12, 16))]
    cases += [(other, ResourceSpec(5, 4)), (other, ResourceSpec(24, 1))]
    for p in params:
        for region, base in cases:
            got = tabulate_surface(p, region, base)
            want = _nested_tabulate(p, region, base)
            assert np.array_equal(got.values, want.values), (p, region, base)
            assert got == want
        for spec in INTEGER_SPECS:
            assert (raw_throughput(p, spec.cores, spec.memory_gb)
                    == _old_raw_throughput(p, spec.cores, spec.memory_gb))


def test_plan_capacity_matches_dict_scan():
    rng = np.random.default_rng(5)
    infeasible = 0
    for surface in _surfaces(5):
        old = _as_dict(surface)
        for _ in range(25):
            request = _random_request(rng)
            try:
                want = _old_plan(request, old)
            except InfeasibleError as exc:
                infeasible += 1
                with pytest.raises(InfeasibleError) as got:
                    plan_capacity(request, surface)
                assert str(got.value) == str(exc)
                assert type(got.value.best_speedup) is float
                assert got.value.best_speedup == exc.best_speedup
            else:
                assert plan_capacity(request, surface) == want
    assert 0 < infeasible < 1000


def test_surface_error_matches_left_to_right_sum():
    surfaces = _surfaces(6)
    for predicted, actual in zip(surfaces, surfaces[1:]):
        actual = actual.rebase(predicted.base_spec)
        got = surface_error(predicted, actual)
        assert type(got) is float
        assert got == _old_surface_error(_as_dict(predicted), _as_dict(actual))


# --- the array's own contract ------------------------------------------------

def test_surface_json_holds_plain_floats_in_grid_order():
    surface = _surfaces(7, count=1)[0]
    speedups = surface.to_json()["speedups"]
    assert list(speedups) == [s.key for s in SPECS]
    assert all(type(v) is float for v in speedups.values())
    assert ScalingSurface.from_json(REGION, surface.to_json()) == surface


def test_surface_values_are_a_read_only_copy():
    grid = np.ones(SHAPE)
    surface = ScalingSurface(REGION, ResourceSpec(6, 8), grid)
    grid[0, 0] = 2.0
    assert surface.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        surface.values[0, 0] = 2.0


def _corner(value):
    grid = np.ones(SHAPE)
    grid[0, 0] = value
    return grid


@pytest.mark.parametrize("base, values, message", [
    (ResourceSpec(6, 8), np.ones(SHAPE[0] * SHAPE[1]), "surface needs shape"),
    (ResourceSpec(6, 8), np.ones(SHAPE[::-1]), "surface needs shape"),
    (ResourceSpec(3, 8), np.ones(SHAPE), "base .* not on grid"),
    (ResourceSpec(6, 8), np.full(SHAPE, 1.5), "speedup at base must be 1.0, got 1.5"),
    (ResourceSpec(6, 8), _corner(np.nan), "speedup at 1c2g must be finite positive, got nan"),
    (ResourceSpec(6, 8), _corner(np.inf), "speedup at 1c2g must be finite positive, got inf"),
    (ResourceSpec(6, 8), _corner(0.0), "speedup at 1c2g must be finite positive, got 0.0"),
    (ResourceSpec(6, 8), _corner(-1.0), "speedup at 1c2g must be finite positive, got -1.0"),
])
def test_surface_rejects_bad_grids(base, values, message):
    with pytest.raises(ValueError, match=message):
        ScalingSurface(REGION, base, values)
