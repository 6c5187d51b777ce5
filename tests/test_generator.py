import numpy as np
import pytest

from hubnet.generator import PRESET_SIZES, GeneratorSpec, generate, preset
from hubnet.model import validate_instance


def test_same_spec_same_instance():
    a = generate(GeneratorSpec(n=12, p=4, seed=9))
    b = generate(GeneratorSpec(n=12, p=4, seed=9))
    for name in ("fixed_cost", "capacity", "handling_cost", "distance",
                 "travel_time", "max_transfer_time", "unit_transport_cost",
                 "demand", "window_lower", "window_upper"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    c = generate(GeneratorSpec(n=12, p=4, seed=10))
    assert not np.array_equal(a.distance, c.distance)


def test_generated_instances_validate():
    # the overflow bounds of validate_instance leave the preset ladder and
    # the benchmark's instances valid as well
    specs = [GeneratorSpec(n=8, p=3, seed=seed) for seed in range(5)]
    specs += [preset(k) for k in range(1, len(PRESET_SIZES) + 1)]
    specs += [GeneratorSpec(n=10, p=3, seed=seed) for seed in (3, 7)]
    for spec in specs:
        assert validate_instance(generate(spec)) == [], spec


def test_recipe_ranges():
    inst = generate(GeneratorSpec(n=20, p=6, seed=1))
    off = ~np.eye(20, dtype=bool)
    assert np.all((inst.fixed_cost >= 200) & (inst.fixed_cost <= 500))
    assert np.all((inst.capacity >= 2000) & (inst.capacity <= 3000))
    assert np.all((inst.handling_cost >= 0.1) & (inst.handling_cost <= 0.2))
    assert np.all((inst.distance[off] >= 50) & (inst.distance[off] <= 300))
    assert np.all((inst.unit_transport_cost[off] >= 2) & (inst.unit_transport_cost[off] <= 3))
    assert np.all((inst.max_transfer_time[off] >= 200) & (inst.max_transfer_time[off] <= 300))
    dem = inst.demand[off]
    assert np.all((dem >= 60) & (dem <= 70))
    assert np.all(np.diff(dem, axis=-1) >= 0)
    assert np.all(inst.demand[np.arange(20), np.arange(20)] == 0)
    assert np.array_equal(inst.distance, inst.distance.T)


def test_travel_time_and_windows():
    inst = generate(GeneratorSpec(n=10, p=3, seed=2))
    assert np.array_equal(inst.travel_time, np.ceil(inst.distance / 10.0))
    assert np.array_equal(inst.window_lower, np.floor(0.8 * inst.travel_time))
    assert np.array_equal(inst.window_upper, np.ceil(1.2 * inst.travel_time))
    # direct deliveries land inside their window by construction
    off = ~np.eye(10, dtype=bool)
    assert np.all(inst.window_lower[off] <= inst.travel_time[off])
    assert np.all(inst.travel_time[off] <= inst.window_upper[off])


def test_presets():
    assert len(PRESET_SIZES) == 10
    spec = preset(3)
    assert (spec.n, spec.p, spec.seed) == (45, 15, 3)
    assert preset(1).n == 15 and preset(1).p == 6
    for bad in (0, 11, -1):
        with pytest.raises(ValueError):
            preset(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=1, p=1)
    with pytest.raises(ValueError):
        GeneratorSpec(n=5, p=0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=5, p=6)
