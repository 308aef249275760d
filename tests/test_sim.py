"""Tests for sim configuration, metrics, driver and experiment layers."""

import pytest

from repro.scaling import STRUCTURE_SCALE
from repro.sim.config import (
    ExperimentConfig,
    MachineConfig,
    ScaledParameters,
    build_machine,
)
from repro.sim.driver import SCHEMES, RunSpec, execute, make_policy
from repro.sim.experiment import (
    cached_run,
    clear_cache,
    compare_schemes,
)
from repro.sim.metrics import (
    coefficient_of_variation,
    geometric_mean,
    mean,
    percent,
    population_std,
    running_cov,
    safe_ratio,
)
from repro.workloads.specjvm import build_benchmark

KB = 1024


class TestScaledParameters:
    def test_default_scale(self):
        params = ScaledParameters()
        assert params.l1d_reconfig_interval == 1_000
        assert params.l2_reconfig_interval == 10_000
        assert params.bbv_sampling_interval == 10_000
        assert params.l1d_hotspot_min == 500
        assert params.l1d_hotspot_max == 5_000
        assert params.l2_hotspot_min == 5_000

    def test_unit_scale_recovers_paper_values(self):
        params = ScaledParameters(scale=1.0)
        assert params.l1d_reconfig_interval == 100_000
        assert params.l2_reconfig_interval == 1_000_000
        assert params.l1d_hotspot_min == 50_000

    def test_scaled_never_below_one(self):
        params = ScaledParameters(scale=1e-9)
        assert params.scaled(100) == 1


class TestBuildMachine:
    def test_cache_geometry(self, machine):
        assert machine.hierarchy.l1d.size == 64 * KB // STRUCTURE_SCALE
        assert machine.hierarchy.l2.size == 1024 * KB // STRUCTURE_SCALE
        assert machine.hierarchy.l1d.associativity == 2
        assert machine.hierarchy.l2.associativity == 4

    def test_cu_intervals_scaled(self, machine):
        assert machine.cus["L1D"].reconfiguration_interval == 1_000
        assert machine.cus["L2"].reconfiguration_interval == 10_000

    def test_flush_cost_scaled(self, machine):
        # 4.0 cycles/line at paper scale -> 0.04 at 1/100.
        assert machine.timing.params.flush_cycles_per_line == (
            pytest.approx(0.04)
        )

    def test_energy_models_match_sizes(self, machine):
        assert (
            machine.energy.l1d.current_size == machine.hierarchy.l1d.size
        )

    def test_fresh_machines_are_independent(self):
        a = build_machine(MachineConfig())
        b = build_machine(MachineConfig())
        a.request_reconfiguration("L1D", 2)
        assert b.cus["L1D"].current_index == 0


class TestMetrics:
    def test_mean_and_std(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert population_std([2, 2, 2]) == 0.0
        assert population_std([1, 3]) == 1.0

    def test_cov(self):
        assert coefficient_of_variation([2, 2]) == 0.0
        assert coefficient_of_variation([5]) is None
        assert coefficient_of_variation([-1, 1]) is None

    def test_running_cov_matches_batch(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert running_cov(values) == pytest.approx(
            population_std(values) / mean(values)
        )

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([1, 0])

    def test_percent_format(self):
        assert percent(0.473) == "47.3%"

    def test_safe_ratio(self):
        assert safe_ratio(1, 0, default=-1) == -1
        assert safe_ratio(6, 3) == 2


class TestDriver:
    def test_make_policy_names(self):
        config = ExperimentConfig()
        for scheme in SCHEMES:
            policy = make_policy(scheme, config)
            assert policy.name in ("static", "bbv", "hotspot")
        with pytest.raises(ValueError):
            make_policy("oracle", config)

    def test_run_benchmark_result_fields(self, small_config):
        result = execute(RunSpec("db", "hotspot", small_config))
        assert result.benchmark == "db"
        assert result.scheme == "hotspot"
        assert result.instructions >= small_config.max_instructions
        assert result.ipc > 0
        assert result.l1d_energy_nj > 0
        assert result.hotspot_stats is not None
        assert result.bbv_stats is None
        assert result.n_hotspots > 0
        assert 0 < result.hotspot_coverage <= 1.0

    def test_baseline_has_no_policy_stats(self, small_config):
        result = execute(RunSpec("db", "baseline", small_config))
        assert result.hotspot_stats is None
        assert result.bbv_stats is None
        assert result.applied_reconfigurations == {"L1D": 0, "L2": 0}

    def test_bbv_run_has_bbv_stats(self, small_config):
        result = execute(RunSpec("db", "bbv", small_config))
        assert result.bbv_stats is not None
        assert result.bbv_stats.intervals_total >= 19

    def test_prebuilt_benchmark_accepted(self, small_config):
        built = build_benchmark("jess")
        result = execute(RunSpec(built, "baseline", small_config))
        assert result.benchmark == "jess"

    def test_identification_latency_bounded(self, small_config):
        result = execute(RunSpec("db", "hotspot", small_config))
        assert 0.0 <= result.identification_latency <= 1.0


class TestExperiment:
    def test_compare_schemes_runs_all_three(self, small_config):
        clear_cache()
        comparison = compare_schemes("db", small_config)
        assert comparison.baseline.scheme == "static"
        assert comparison.bbv.scheme == "bbv"
        assert comparison.hotspot.scheme == "hotspot"

    def test_cache_hits_same_object(self, small_config):
        clear_cache()
        first = cached_run("db", "baseline", small_config)
        second = cached_run("db", "baseline", small_config)
        assert first is second

    def test_cache_respects_config_fingerprint(self, small_config):
        clear_cache()
        first = cached_run("db", "baseline", small_config)
        other_config = ExperimentConfig(max_instructions=250_000)
        second = cached_run("db", "baseline", other_config)
        assert first is not second

    def test_energy_reduction_and_slowdown(self, small_config):
        clear_cache()
        comparison = compare_schemes("db", small_config)
        for scheme in ("bbv", "hotspot"):
            for cache in ("L1D", "L2"):
                value = comparison.energy_reduction(scheme, cache)
                assert -1.0 < value < 1.0
            assert -0.5 < comparison.slowdown(scheme) < 1.0
        with pytest.raises(ValueError):
            comparison.energy_reduction("hotspot", "L3")
