"""Tests for the post-run analysis reports."""

import pytest

from repro.report.analysis import (
    hotspot_report,
    phase_report,
    render_hotspot_report,
    render_phase_report,
)
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute, make_policy
from repro.workloads.specjvm import build_benchmark


@pytest.fixture(scope="module")
def hotspot_run():
    config = ExperimentConfig(max_instructions=500_000)
    policy = make_policy("hotspot", config)
    result = execute(RunSpec(
        build_benchmark("db"), "hotspot", config, policy=policy
    ))
    return policy, result


@pytest.fixture(scope="module")
def bbv_run():
    config = ExperimentConfig(max_instructions=500_000)
    policy = make_policy("bbv", config)
    execute(RunSpec(build_benchmark("db"), "bbv", config, policy=policy))
    return policy


class TestHotspotReport:
    def test_rows_cover_all_hotspots(self, hotspot_run):
        policy, result = hotspot_run
        rows = hotspot_report(policy, result)
        names = {r.name for r in rows}
        assert set(policy.states) <= names
        assert set(policy.unmanaged) <= names

    def test_managed_rows_sorted_first_by_size(self, hotspot_run):
        policy, result = hotspot_run
        rows = hotspot_report(policy, result)
        managed = [r for r in rows if r.managed]
        assert managed == sorted(
            managed, key=lambda r: -r.mean_size
        )
        first_unmanaged = next(
            (i for i, r in enumerate(rows) if not r.managed), len(rows)
        )
        assert all(r.managed for r in rows[:first_unmanaged])

    def test_chosen_settings_humanised(self, hotspot_run):
        policy, result = hotspot_run
        rows = hotspot_report(policy, result)
        tuned = [r for r in rows if r.best_settings]
        assert tuned
        for r in tuned:
            for setting in r.best_settings:
                assert "KB" in setting or "entry" in setting

    def test_render(self, hotspot_run):
        policy, result = hotspot_run
        text = render_hotspot_report(policy, result)
        assert "Per-hotspot adaptation report" in text
        assert "driver0" in text

    def test_report_without_run_result(self, hotspot_run):
        policy, _ = hotspot_run
        rows = hotspot_report(policy)
        assert rows
        assert all(r.invocations == 0 for r in rows)


class TestPhaseReport:
    def test_rows_cover_all_phases(self, bbv_run):
        rows = phase_report(bbv_run)
        assert len(rows) == bbv_run.classifier.n_phases
        assert rows == sorted(rows, key=lambda r: -r.intervals)

    def test_tuned_flags_consistent(self, bbv_run):
        rows = phase_report(bbv_run)
        tuned_pids = {
            pid for pid, e in bbv_run.entries.items() if e.tuned
        }
        assert {r.pid for r in rows if r.tuned} == tuned_pids

    def test_render(self, bbv_run):
        text = render_phase_report(bbv_run)
        assert "Per-phase adaptation report" in text
        assert "intervals" in text
