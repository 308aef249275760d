"""Focused tests for remaining corners: driver summaries, framework
comparison content, positional on real stand-ins, synthetic options."""

import pytest

from repro.core.framework import ACEFramework
from repro.phases.positional import PositionalACEPolicy
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark
from repro.workloads.synthetic import random_program
from tests.conftest import make_two_tier_program


class TestHotspotSummaries:
    def test_summaries_track_do_database(self, small_config):
        result = execute(RunSpec("db", "hotspot", small_config))
        assert set(result.hotspot_summaries)
        for name, summary in result.hotspot_summaries.items():
            assert summary.name == name
            assert summary.invocations > 0
            assert summary.mean_size > 0
            assert summary.detected_at is not None

    def test_avg_metrics_derive_from_summaries(self, small_config):
        result = execute(RunSpec("db", "hotspot", small_config))
        sizes = [
            s.mean_size for s in result.hotspot_summaries.values()
        ]
        assert result.avg_hotspot_size == pytest.approx(
            sum(sizes) / len(sizes)
        )


class TestFrameworkCompareContent:
    def test_reports_share_one_baseline(self):
        framework = ACEFramework()
        reports = framework.compare(
            make_two_tier_program(), max_instructions=250_000
        )
        baselines = {
            r.baseline_cycles for r in reports.values()
        }
        assert len(baselines) == 1  # same baseline run for all schemes

    def test_hotspot_scheme_summary_meaningful(self):
        framework = ACEFramework()
        reports = framework.compare(
            make_two_tier_program(), max_instructions=400_000,
            schemes=("hotspot",),
        )
        report = reports["hotspot"]
        assert report.hotspots_detected >= 2
        assert "hotspots" in report.summary()


class TestPositionalOnStandIns:
    def test_positional_runs_on_benchmark(self):
        config = ExperimentConfig(max_instructions=500_000)
        policy = PositionalACEPolicy(tuning=config.tuning)
        result = execute(RunSpec(
            build_benchmark("jess"), "hotspot", config, policy=policy
        ))
        assert result.scheme == "positional"
        stats = policy.finalize()
        # Drivers (>= the L2 interval in size) are managed; mids are not.
        assert stats.managed_hotspots >= 1
        assert stats.unmanaged_hotspots >= 1
        kinds = set(stats.kind_of.values())
        assert kinds <= {"procedure", "unmanaged"}


class TestSyntheticOptions:
    def test_without_memory_has_no_behaviours(self):
        program = random_program(5, with_memory=False)
        for method in program.methods.values():
            for block in method.blocks.values():
                assert block.memory is None

    def test_with_memory_generates_behaviours(self):
        found = False
        for seed in range(10):
            program = random_program(seed, with_memory=True)
            for method in program.methods.values():
                for block in method.blocks.values():
                    if block.memory is not None:
                        found = True
        assert found

    def test_size_limits_respected(self):
        program = random_program(7, max_methods=2, max_blocks=2)
        assert len(program.methods) <= 2
        for method in program.methods.values():
            assert len(method.blocks) <= 2


class TestBenchmarkSizeScale:
    def test_size_scale_scales_targets(self):
        normal = build_benchmark("db")
        doubled = build_benchmark("db", size_scale=2.0)
        normal_mids = [
            s.target_size for s in normal.library.specs
            if s.kind == "mid"
        ]
        doubled_mids = [
            s.target_size for s in doubled.library.specs
            if s.kind == "mid"
        ]
        assert sum(doubled_mids) > 1.5 * sum(normal_mids)

    def test_bad_size_scale_rejected(self):
        with pytest.raises(ValueError):
            build_benchmark("db", size_scale=0)


class TestRunResultEdges:
    def test_identification_latency_clamped(self, small_config):
        result = execute(RunSpec("jack", "hotspot", small_config))
        assert 0.0 <= result.identification_latency <= 1.0

    def test_empty_hotspot_metrics_are_zero(self):
        from repro.sim.driver import RunResult

        empty = RunResult(
            benchmark="x", scheme="static", instructions=0, cycles=0.0,
            ipc=0.0, l1d_energy_nj=0.0, l2_energy_nj=0.0,
            l1d_breakdown={}, l2_breakdown={}, memory_nj=0.0,
            l1d_miss_rate=0.0, l2_miss_rate=0.0,
            branch_mispredict_rate=0.0, n_hotspots=0,
            instructions_in_hotspots=0,
        )
        assert empty.hotspot_coverage == 0.0
        assert empty.identification_latency == 0.0
        assert empty.avg_hotspot_size == 0.0
        assert empty.avg_invocations_per_hotspot == 0.0
