"""The block renderer against the per-box oracle, byte for byte.

``repro.trace.generator`` draws every box's random numbers first and then
computes the factor series of a whole block of boxes as 2-D arrays;
:mod:`tests.trace.generator_oracle` is the one-box-at-a-time generator it
replaced.  Equality here is exact: usage bytes, capacities, VM identities
and the caller's RNG state after the call.
"""

import numpy as np
import pytest

from repro.trace import generator
from repro.trace.generator import (
    FleetConfig,
    generate_box_groups,
    generate_fleet,
)
from repro.trace.scenario import (
    ARCHETYPES,
    NAMED_SCENARIOS,
    CohortSpec,
    RegimeShift,
    RenderSpec,
    ScenarioSpec,
    _derive_config,
    render_box,
    render_boxes,
)
from repro.trace.workloads import ar1_noise, diurnal
from tests.trace import generator_oracle as oracle


def assert_same_box(actual, expected):
    assert actual.box_id == expected.box_id
    assert actual.interval_minutes == expected.interval_minutes
    assert actual.scenario_fp == expected.scenario_fp
    assert np.float64(actual.cpu_capacity).tobytes() == np.float64(expected.cpu_capacity).tobytes()
    assert np.float64(actual.ram_capacity).tobytes() == np.float64(expected.ram_capacity).tobytes()
    assert actual.vm_ids == expected.vm_ids
    assert actual.vm_cpu_capacities == expected.vm_cpu_capacities
    assert actual.vm_ram_capacities == expected.vm_ram_capacities
    assert actual.usage.dtype == expected.usage.dtype == np.float64
    assert actual.usage.shape == expected.usage.shape
    for row, (got, want) in enumerate(zip(actual.usage, expected.usage)):
        assert got.tobytes() == want.tobytes(), (actual.box_id, row)


def assert_same_boxes(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_same_box(got, want)


@pytest.fixture
def row_budget(monkeypatch):
    """Set the block renderer's row budget for one test."""

    def _set(rows: int) -> None:
        monkeypatch.setattr(generator, "ROW_BUDGET", rows)

    return _set


class TestPrimitives:
    @pytest.mark.parametrize("sharpness", [1.0, 1.37, 2.5])
    def test_diurnal_matches_oracle(self, sharpness):
        got = diurnal(300, 96, phase=0.31, sharpness=sharpness)
        want = oracle.diurnal(300, 96, amplitude=1.0, phase=0.31, sharpness=sharpness)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phi", [0.6, 0.92, 0.998, -0.4])
    def test_ar1_noise_matches_oracle(self, phi):
        rng_new, rng_old = np.random.default_rng(9), np.random.default_rng(9)
        assert ar1_noise(rng_new, 700, phi=phi).tobytes() == oracle.ar1_noise(
            rng_old, 700, phi=phi
        ).tobytes()
        assert rng_new.random() == rng_old.random()


class TestCalibratedFleet:
    @pytest.mark.parametrize("days", [1, 7, 10])
    @pytest.mark.parametrize("seed", [3, 20160628, 1_234_567])
    def test_fleet_matches_oracle(self, seed, days):
        cfg = FleetConfig(n_boxes=6, days=days, seed=seed)
        assert_same_boxes(generate_fleet(cfg).boxes, oracle.generate_fleet_boxes(cfg))

    @pytest.mark.parametrize("rows", [1, 40, 10_000], ids=["box-per-block", "mid", "one-block"])
    def test_block_boundaries_do_not_move_bits(self, row_budget, rows):
        row_budget(rows)
        cfg = FleetConfig(n_boxes=9, days=2, seed=77)
        assert_same_boxes(generate_fleet(cfg).boxes, oracle.generate_fleet_boxes(cfg))

    def test_caller_rng_is_drawn_in_oracle_order(self):
        cfg = FleetConfig(days=3, seed=5)
        rng_new, rng_old = np.random.default_rng(42), np.random.default_rng(42)
        for index in (0, 4):  # two boxes from one stream
            assert_same_box(
                next(generate_box_groups([[(index, cfg, rng_new)]]))[0],
                oracle.generate_box(index, cfg, rng=rng_old),
            )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @pytest.mark.parametrize(
        "overrides",
        [
            # Two-window days: every spike anchor can hit the last slot.
            dict(windows_per_day=2, days=3, spike_participation=1.0),
            dict(windows_per_day=24, cpu_spikes_per_day=0),
            # Boxes past the row budget on their own.
            dict(mean_vms_per_box=18.0, max_vms_per_box=20, days=1),
            dict(min_vms_per_box=1, max_vms_per_box=2, days=1),
            dict(cpu_hot_box_fraction=1.0, ram_hot_box_fraction=1.0, days=2),
        ],
        ids=["wpd2", "wpd24-nospikes", "big-boxes", "tiny-boxes", "all-hot"],
    )
    def test_config_corners(self, overrides):
        cfg = FleetConfig(n_boxes=5, seed=13, **overrides)
        assert_same_boxes(generate_fleet(cfg).boxes, oracle.generate_fleet_boxes(cfg))

    def test_mixed_geometry_block_rejected(self, row_budget):
        row_budget(10_000)
        groups = [
            [(0, FleetConfig(days=1), None)],
            [(1, FleetConfig(days=2), None)],
        ]
        with pytest.raises(ValueError, match="geometry"):
            list(generate_box_groups(groups))


class TestScenarios:
    @pytest.mark.parametrize("archetype", sorted(ARCHETYPES))
    def test_archetype_overrides_match_oracle(self, archetype):
        cfg = _derive_config(FleetConfig(n_boxes=5, days=2, seed=31), archetype, RenderSpec())
        got = [box for (box,) in generate_box_groups([(b, cfg, None)] for b in range(5))]
        assert_same_boxes(got, oracle.generate_fleet_boxes(cfg))

    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIOS))
    def test_named_scenarios_match_oracle(self, row_budget, name):
        row_budget(40)  # several blocks, regime-shift pairs inside them
        spec = NAMED_SCENARIOS[name]
        cfg = FleetConfig(n_boxes=7, days=2, seed=101)
        expected = [oracle.render_box(b, spec, cfg) for b in range(cfg.n_boxes)]
        assert_same_boxes(list(render_boxes(range(cfg.n_boxes), spec, cfg)), expected)
        assert_same_box(render_box(3, spec, cfg), expected[3])

    @pytest.mark.parametrize(
        "render",
        [
            RenderSpec(
                noise_scale=2.0, coupling_scale=0.5, capacity_spread=2.0, culprit_share_scale=2.0
            ),
            RenderSpec(
                noise_scale=0.3, coupling_scale=1.5, capacity_spread=0.0, culprit_share_scale=0.0
            ),
        ],
        ids=["loud", "quiet"],
    )
    def test_render_scalings_match_oracle(self, render):
        spec = ScenarioSpec(
            "scaled",
            (CohortSpec("paper-fig2"), CohortSpec("batch", shift=RegimeShift("ramp"))),
            render=render,
        )
        cfg = FleetConfig(n_boxes=6, days=2, seed=8)
        expected = [oracle.render_box(b, spec, cfg) for b in range(cfg.n_boxes)]
        assert_same_boxes(list(render_boxes(range(cfg.n_boxes), spec, cfg)), expected)


def test_randomized_equivalence(monkeypatch):
    """Random seeds, lengths, archetypes, renders and block budgets."""
    draw = np.random.default_rng(20161018)
    archetypes = sorted(ARCHETYPES)
    for _ in range(10):
        monkeypatch.setattr(generator, "ROW_BUDGET", int(draw.choice([1, 30, 96, 500])))
        pre, post = draw.choice(archetypes, size=2)
        shift = RegimeShift(str(post)) if draw.random() < 0.5 else None
        spec = ScenarioSpec(
            "random",
            (CohortSpec("paper-fig2"), CohortSpec(str(pre), shift=shift)),
            render=RenderSpec(
                noise_scale=float(draw.uniform(0.0, 3.0)),
                coupling_scale=float(draw.uniform(0.0, 2.0)),
                capacity_spread=float(draw.uniform(0.0, 2.0)),
                culprit_share_scale=float(draw.uniform(0.0, 2.5)),
            ),
        )
        cfg = FleetConfig(
            n_boxes=int(draw.integers(1, 6)),
            days=int(draw.choice([1, 7, 10])),
            seed=int(draw.integers(0, 2**31)),
        )
        expected = [oracle.render_box(b, spec, cfg) for b in range(cfg.n_boxes)]
        assert_same_boxes(list(render_boxes(range(cfg.n_boxes), spec, cfg)), expected)
