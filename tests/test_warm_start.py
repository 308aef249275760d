"""Tests for DO-database persistence, warm-started tuning, the EDP
objective, and the resize-policy option."""

import pytest

from repro.core.policy import HotspotACEPolicy
from repro.core.tuning import (
    TuningConfig,
    TuningOutcome,
    choose_best_robust,
    selection_key,
)
from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.sim.driver import RunSpec, execute
from repro.uarch.cache import Cache
from repro.vm.hotspot import DODatabase
from repro.workloads.specjvm import build_benchmark

KB = 1024


class TestDatabasePersistence:
    def run_once(self, config):
        policy = HotspotACEPolicy(tuning=config.tuning)
        built = build_benchmark("db")
        result = execute(RunSpec(built, "hotspot", config, policy=policy))
        return result, policy

    def capture_database(self, config):
        from repro.vm.vm import VMConfig, VirtualMachine

        built = build_benchmark("db")
        vm = VirtualMachine(
            built.program,
            build_machine(config.machine),
            policy=HotspotACEPolicy(tuning=config.tuning),
            config=VMConfig(hot_threshold=config.hot_threshold),
            thread_entries=built.thread_entries,
        )
        vm.run(config.max_instructions)
        return vm.database

    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(max_instructions=300_000)
        database = self.capture_database(config)
        path = str(tmp_path / "do.json")
        database.save(path)
        loaded = DODatabase.load(path)
        assert set(loaded.hotspots) == set(database.hotspots)
        for name, info in loaded.hotspots.items():
            assert info.mean_size == pytest.approx(
                database.hotspots[name].mean_size
            )
            # Per-run metrics restart.
            assert info.profile.pre_hot_instructions == 0
            assert info.profile.invocations == 0

    def test_preloaded_run_has_zero_identification_latency(self):
        config = ExperimentConfig(max_instructions=300_000)
        database = self.capture_database(config)
        preload = DODatabase.from_dict(database.to_dict())
        result = execute(RunSpec(
            build_benchmark("db"), "hotspot", config,
            preload_database=preload,
        ))
        assert result.identification_latency == 0.0
        assert result.n_hotspots >= len(database.hotspots)


class TestWarmStart:
    def test_warm_start_skips_tuning(self):
        config = ExperimentConfig(max_instructions=400_000)
        first = HotspotACEPolicy(tuning=config.tuning)
        execute(RunSpec(build_benchmark("db"), "hotspot", config,
                      policy=first))
        chosen = first.chosen_configs()
        assert chosen

        second = HotspotACEPolicy(
            tuning=config.tuning, warm_start=chosen
        )
        execute(RunSpec(build_benchmark("db"), "hotspot", config,
                      policy=second))
        assert second.warm_started >= 1
        # Warm-started hotspots spend no tuning trials.
        warm_trials = sum(second.trial_count.values())
        cold_trials = sum(first.trial_count.values())
        assert warm_trials < cold_trials

    def test_warm_start_mismatched_width_ignored(self):
        config = ExperimentConfig(max_instructions=300_000)
        policy = HotspotACEPolicy(
            tuning=config.tuning,
            warm_start={"mid0": (1, 2, 3)},  # wrong CU-subset width
        )
        execute(RunSpec(build_benchmark("db"), "hotspot", config,
                      policy=policy))
        assert policy.warm_started == 0

    def test_inherited_config_is_verified(self):
        config = ExperimentConfig(max_instructions=400_000)
        first = HotspotACEPolicy(tuning=config.tuning)
        execute(RunSpec(build_benchmark("db"), "hotspot", config,
                      policy=first))
        chosen = first.chosen_configs()
        second = HotspotACEPolicy(tuning=config.tuning,
                                  warm_start=chosen)
        execute(RunSpec(build_benchmark("db"), "hotspot", config,
                      policy=second))
        # After the run, warm-started states have been through (or are
        # still in) verification — none are left unverified-and-untouched.
        for name in chosen:
            state = second.states.get(name)
            if state is not None and state.best is not None:
                assert (
                    state.verify_passes >= 1
                    or state.verify_pending
                    or state.demotions > 0
                    or state.tuning_rounds > 1
                )


class TestObjectives:
    def test_selection_key(self):
        fast = TuningOutcome((0,), 2.0, 1.0, 1000)
        slow = TuningOutcome((1,), 1.0, 0.9, 1000)
        assert selection_key(fast, "energy") > selection_key(slow, "energy")
        # EDP penalises the slow config despite its lower energy.
        assert selection_key(fast, "edp") < selection_key(slow, "edp")

    def test_choose_best_robust_edp(self):
        outcomes = [
            TuningOutcome((0,), 2.00, 1.0, 1000),
            TuningOutcome((1,), 1.99, 0.9, 1000),
            TuningOutcome((2,), 1.98, 0.95, 1000),
        ]
        energy_best = choose_best_robust(outcomes, 0.05, "energy")
        edp_best = choose_best_robust(outcomes, 0.05, "edp")
        assert energy_best.config == (1,)
        assert edp_best.config == (1,)  # 0.9/1.99 still lowest EDP

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            TuningConfig(objective="speed")

    def test_edp_run_end_to_end(self):
        config = ExperimentConfig(
            tuning=TuningConfig(objective="edp"),
            max_instructions=300_000,
        )
        result = execute(RunSpec(build_benchmark("db"), "hotspot", config))
        assert result.hotspot_stats.tuned_hotspots >= 1


class TestResizePolicy:
    def test_flush_policy_drops_everything(self):
        cache = Cache(
            "c", 8 * KB, 64, 2, sizes=(8 * KB, 4 * KB),
            resize_policy="flush",
        )
        cache.access(0x0)  # survives a selective shrink, not a flush
        cache.resize(4 * KB)
        assert not cache.contains(0x0)

    def test_selective_policy_keeps_surviving_lines(self):
        cache = Cache(
            "c", 8 * KB, 64, 2, sizes=(8 * KB, 4 * KB),
            resize_policy="selective",
        )
        cache.access(0x0)
        cache.resize(4 * KB)
        assert cache.contains(0x0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Cache("c", 1 * KB, 64, 2, resize_policy="magic")

    def test_machine_config_carries_policy(self):
        machine = build_machine(MachineConfig(resize_policy="flush"))
        assert machine.hierarchy.l1d.resize_policy == "flush"
        assert machine.hierarchy.l2.resize_policy == "flush"
