"""Unit tests for memory-access behaviours."""

import random

import pytest

from repro.workloads.patterns import (
    MixedBehavior,
    PointerChaseBehavior,
    StackBehavior,
    StridedBehavior,
    WanderingWindowBehavior,
    WorkingSetBehavior,
)

FRAME = 0x7F00_0000
REGION = 0x1000_0000


def generate(behavior, iteration=0, n_loads=8, n_stores=4, seed=1):
    rng = random.Random(seed)
    return behavior.generate(rng, FRAME, REGION, iteration, n_loads, n_stores)


class TestStackBehavior:
    def test_counts_and_bounds(self):
        loads, stores = generate(StackBehavior(span=128))
        assert len(loads) == 8 and len(stores) == 4
        for addr in loads + stores:
            assert FRAME <= addr < FRAME + 128
            assert addr % 4 == 0

    def test_footprint(self):
        assert StackBehavior(span=256).footprint() == 256

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            StackBehavior(span=0)


class TestStridedBehavior:
    def test_sequential_walk(self):
        behavior = StridedBehavior(span=1024, stride=64)
        loads, stores = generate(behavior, iteration=0, n_loads=4,
                                 n_stores=0)
        assert loads == [REGION, REGION + 64, REGION + 128, REGION + 192]

    def test_iteration_advances_position(self):
        behavior = StridedBehavior(span=10_000, stride=64)
        first, _ = generate(behavior, iteration=0, n_loads=4, n_stores=0)
        second, _ = generate(behavior, iteration=1, n_loads=4, n_stores=0)
        assert second[0] == first[-1] + 64

    def test_wraps_at_span(self):
        behavior = StridedBehavior(span=256, stride=64)
        loads, _ = generate(behavior, iteration=0, n_loads=8, n_stores=0)
        assert all(REGION <= a < REGION + 256 for a in loads)

    def test_offset(self):
        behavior = StridedBehavior(span=1024, stride=64, offset=4096)
        loads, _ = generate(behavior, n_loads=1, n_stores=0)
        assert loads[0] == REGION + 4096

    def test_stores_continue_the_walk(self):
        behavior = StridedBehavior(span=100_000, stride=64)
        loads, stores = generate(behavior, n_loads=2, n_stores=2)
        assert stores[0] == loads[-1] + 64


class TestWorkingSetBehavior:
    def test_bounds(self):
        behavior = WorkingSetBehavior(span=2048, locality=0.5)
        loads, stores = generate(behavior, n_loads=100, n_stores=50)
        for addr in loads + stores:
            assert REGION <= addr < REGION + 2048

    def test_locality_concentrates_in_hot_eighth(self):
        behavior = WorkingSetBehavior(span=8192, locality=1.0)
        loads, _ = generate(behavior, n_loads=200, n_stores=0)
        hot_end = REGION + 8192 // 8
        assert all(addr < hot_end for addr in loads)

    def test_zero_locality_spreads(self):
        behavior = WorkingSetBehavior(span=8192, locality=0.0)
        loads, _ = generate(behavior, n_loads=300, n_stores=0)
        assert max(loads) > REGION + 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkingSetBehavior(span=100, locality=1.5)
        with pytest.raises(ValueError):
            WorkingSetBehavior(span=100, offset=-1)


class TestWanderingWindow:
    def test_window_bounds_at_fixed_iteration(self):
        behavior = WanderingWindowBehavior(
            window=1024, region_span=8192, drift=128
        )
        loads, _ = generate(behavior, iteration=0, n_loads=100, n_stores=0)
        assert all(REGION <= a < REGION + 1024 for a in loads)

    def test_window_drifts_with_iterations(self):
        behavior = WanderingWindowBehavior(
            window=1024, region_span=65536, drift=128
        )
        late, _ = generate(behavior, iteration=100, n_loads=50, n_stores=0)
        assert min(late) >= REGION + 100 * 128

    def test_wraps_in_region(self):
        behavior = WanderingWindowBehavior(
            window=1024, region_span=4096, drift=512
        )
        loads, _ = generate(behavior, iteration=1000, n_loads=50,
                            n_stores=0)
        assert all(REGION <= a < REGION + 4096 + 1024 for a in loads)

    def test_region_must_hold_window(self):
        with pytest.raises(ValueError):
            WanderingWindowBehavior(window=100, region_span=50)

    def test_footprint_is_window(self):
        behavior = WanderingWindowBehavior(512, 4096)
        assert behavior.footprint() == 512


class TestPointerChase:
    def test_serialized_flag(self):
        assert PointerChaseBehavior(1024).serialized is True
        assert not getattr(StackBehavior(), "serialized", False)

    def test_bounds(self):
        behavior = PointerChaseBehavior(span=512, offset=64)
        loads, _ = generate(behavior, n_loads=50, n_stores=0)
        assert all(REGION + 64 <= a < REGION + 64 + 512 for a in loads)


class TestMixedBehavior:
    def test_counts_preserved(self):
        behavior = MixedBehavior(
            [
                (StackBehavior(), 1.0),
                (WorkingSetBehavior(1024), 2.0),
                (StridedBehavior(1024), 1.0),
            ]
        )
        loads, stores = generate(behavior, n_loads=17, n_stores=9)
        assert len(loads) == 17
        assert len(stores) == 9

    def test_apportionment_by_weight(self):
        behavior = MixedBehavior(
            [(StackBehavior(), 3.0), (WorkingSetBehavior(1024), 1.0)]
        )
        loads, _ = generate(behavior, n_loads=100, n_stores=0)
        stack_loads = sum(1 for a in loads if a >= FRAME)
        assert stack_loads == 75

    def test_weights_normalised(self):
        behavior = MixedBehavior([(StackBehavior(), 5.0)])
        assert behavior.components[0][1] == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MixedBehavior([])

    def test_footprint_is_max_known(self):
        behavior = MixedBehavior(
            [(StackBehavior(span=64), 1.0),
             (WorkingSetBehavior(4096), 1.0)]
        )
        assert behavior.footprint() == 4096


class TestDeterminism:
    @pytest.mark.parametrize(
        "behavior",
        [
            StackBehavior(),
            StridedBehavior(2048, stride=64),
            WorkingSetBehavior(2048, locality=0.5),
            PointerChaseBehavior(2048),
            WanderingWindowBehavior(512, 4096),
        ],
        ids=lambda b: type(b).__name__,
    )
    def test_same_seed_same_addresses(self, behavior):
        first = generate(behavior, seed=7)
        second = generate(behavior, seed=7)
        assert first == second
