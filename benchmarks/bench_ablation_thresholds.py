"""Ablation — sensitivity to the framework's two thresholds.

* ``performance_threshold`` (§3.2.2's 2 % IPC degradation bound): a looser
  bound admits smaller configurations (more energy saved, more slowdown);
  a tighter bound is more conservative.
* ``hot_threshold`` (Table 1): a higher detection threshold delays
  optimisation — identification latency grows roughly linearly with it.
"""

import pytest

from benchmarks.conftest import ABLATION_BUDGET
from repro.core.tuning import TuningConfig
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.experiment import cached_run, clear_cache
from repro.workloads.specjvm import build_benchmark

BENCH = "db"


def run_with_threshold(threshold: float):
    config = ExperimentConfig(
        tuning=TuningConfig(performance_threshold=threshold),
        max_instructions=ABLATION_BUDGET,
    )
    hotspot = execute(RunSpec(build_benchmark(BENCH), "hotspot", config))
    baseline = execute(RunSpec(build_benchmark(BENCH), "baseline", config))
    epi = hotspot.l1d_energy_nj / hotspot.instructions
    base_epi = baseline.l1d_energy_nj / baseline.instructions
    return 1 - epi / base_epi


@pytest.fixture(scope="module")
def threshold_sweep():
    return {t: run_with_threshold(t) for t in (0.005, 0.02, 0.10)}


def test_performance_threshold_trades_energy(benchmark, threshold_sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for threshold, reduction in sorted(threshold_sweep.items()):
        print(f"threshold {threshold:.1%}: L1D reduction {reduction:.1%}")
    # A loose bound must not save *less* energy than a strict one
    # (monotone up to noise).
    assert threshold_sweep[0.10] >= threshold_sweep[0.005] - 0.05


def test_hot_threshold_drives_identification_latency(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    clear_cache()
    latencies = {}
    for hot_threshold in (3, 12):
        config = ExperimentConfig(
            max_instructions=ABLATION_BUDGET, hot_threshold=hot_threshold
        )
        result = cached_run(BENCH, "hotspot", config)
        latencies[hot_threshold] = result.identification_latency
        print(
            f"hot_threshold {hot_threshold}: latency "
            f"{result.identification_latency:.2%}"
        )
    assert latencies[12] > latencies[3], (
        "higher hot_threshold must raise identification latency"
    )
