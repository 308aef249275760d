"""Integration tests: full pipeline on real stand-ins at small budgets."""

import pytest

from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.experiment import compare_schemes, run_suite
from repro.workloads.specjvm import build_benchmark


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(max_instructions=600_000)


@pytest.fixture(scope="module")
def db_comparison(config):
    return compare_schemes("db", config)


class TestPipeline:
    def test_all_three_schemes_complete(self, db_comparison):
        for scheme in ("baseline", "bbv", "hotspot"):
            run = getattr(db_comparison, scheme)
            assert run.instructions >= 600_000
            assert run.cycles > 0

    def test_schemes_execute_identical_workload(self, db_comparison):
        # Same program, same seed: instruction streams align closely
        # (reconfiguration does not change control flow).
        base = db_comparison.baseline.instructions
        for scheme in ("bbv", "hotspot"):
            run = getattr(db_comparison, scheme)
            assert abs(run.instructions - base) < 5_000

    def test_adaptation_saves_energy(self, db_comparison):
        assert db_comparison.energy_reduction("hotspot", "L1D") > 0.2
        assert db_comparison.energy_reduction("hotspot", "L2") > 0.1

    def test_adaptation_costs_bounded_performance(self, db_comparison):
        assert db_comparison.slowdown("hotspot") < 0.25
        assert db_comparison.slowdown("bbv") < 0.35

    def test_baseline_never_reconfigures(self, db_comparison):
        counts = db_comparison.baseline.applied_reconfigurations
        assert all(v == 0 for v in counts.values())

    def test_hotspot_scheme_reconfigures(self, db_comparison):
        counts = db_comparison.hotspot.applied_reconfigurations
        assert counts["L1D"] > 0

    def test_hotspot_tables_populated(self, db_comparison):
        stats = db_comparison.hotspot.hotspot_stats
        assert stats.managed_hotspots >= 2
        assert stats.tuned_hotspots >= 1
        assert stats.coverage["L1D"] > 0.3

    def test_bbv_tables_populated(self, db_comparison):
        stats = db_comparison.bbv.bbv_stats
        assert stats.n_phases >= 1
        assert stats.intervals_total >= 55
        assert stats.occurrence_stats.total_intervals == (
            stats.intervals_total
        )


class TestReproducibility:
    def test_identical_configs_identical_results(self, config):
        a = execute(RunSpec(build_benchmark("jess"), "hotspot", config))
        b = execute(RunSpec(build_benchmark("jess"), "hotspot", config))
        assert a.cycles == b.cycles
        assert a.l1d_energy_nj == b.l1d_energy_nj
        assert a.applied_reconfigurations == b.applied_reconfigurations

    def test_seed_changes_results(self, config):
        a = execute(RunSpec(build_benchmark("jess"), "hotspot", config))
        other = ExperimentConfig(
            max_instructions=config.max_instructions, seed=777
        )
        b = execute(RunSpec(build_benchmark("jess"), "hotspot", other))
        assert a.cycles != b.cycles


class TestMultiThreaded:
    def test_mtrt_runs_both_threads(self, config):
        result = execute(RunSpec(build_benchmark("mtrt"), "hotspot", config))
        assert result.n_hotspots > 0
        assert result.instructions >= config.max_instructions


class TestSuiteRunner:
    def test_subset_suite(self, config):
        suite = run_suite(["db", "jess"], config)
        assert set(suite.comparisons) == {"db", "jess"}
        avg = suite.average_energy_reduction("hotspot", "L1D")
        assert -1.0 < avg < 1.0
        assert suite.average_slowdown("bbv") < 0.5


class TestMultiCUExtension:
    def test_pipeline_cus_participate(self):
        from repro.sim.config import MachineConfig

        config = ExperimentConfig(
            machine=MachineConfig(enable_pipeline_cus=True),
            max_instructions=500_000,
        )
        result = execute(RunSpec(
            build_benchmark("db"), "hotspot", config
        ))
        stats = result.hotspot_stats
        assert "IQ" in stats.tunings and "ROB" in stats.tunings
        # The four-CU machine classifies small hotspots to IQ/ROB bands.
        kinds = set(stats.kind_of.values())
        assert kinds & {"IQ", "ROB", "L1D", "L2"}
