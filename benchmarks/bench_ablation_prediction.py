"""Ablation — JIT configuration prediction (the paper's future work).

§6: "one could use the JIT compiler ... to provide a good estimate for
the resource configuration required for this hotspot through appropriate
code analysis.  Such a feature could potentially completely eliminate the
tuning latency."  The reproduction's FootprintPredictor hoists the
statically-predicted configuration to the front of the tuning list, so a
correct prediction ends tuning after two trials (reference + prediction)
via the early-exit rule.

Expected shape: with prediction on, fewer tuning trials are spent per
hotspot while energy savings are preserved.
"""

import pytest

from benchmarks.conftest import ABLATION_BUDGET
from repro.core.policy import HotspotACEPolicy
from repro.core.prediction import (
    FootprintPredictor,
    install_program_for_prediction,
)
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark

BENCH = "db"


def run(predict: bool):
    config = ExperimentConfig(max_instructions=ABLATION_BUDGET)
    built = build_benchmark(BENCH)
    predictor = FootprintPredictor() if predict else None
    policy = HotspotACEPolicy(tuning=config.tuning, predictor=predictor)
    result = execute(RunSpec(built, "hotspot", config, policy=policy))
    return result, policy


@pytest.fixture(scope="module")
def runs():
    return {flag: run(flag) for flag in (False, True)}


def test_prediction_reduces_tuning_trials(benchmark, runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base_result, base_policy = runs[False]
    pred_result, pred_policy = runs[True]
    base_stats = base_policy.finalize()
    pred_stats = pred_policy.finalize()
    base_trials = sum(base_stats.tunings.values())
    pred_trials = sum(pred_stats.tunings.values())
    print(
        f"trials without prediction: {base_trials}, "
        f"with prediction: {pred_trials} "
        f"({pred_policy.predictor.predictions} predictions made)"
    )
    assert pred_policy.predictor.predictions > 0
    assert pred_trials <= base_trials, (
        "prediction should not increase tuning trials"
    )


def test_prediction_preserves_energy_savings(benchmark, runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base_result, _ = runs[False]
    pred_result, _ = runs[True]

    def l1d_epi(result):
        return result.l1d_energy_nj / result.instructions

    # With prediction, per-instruction L1D energy stays in the same
    # regime (within 20 % of the unpredicted run).
    assert l1d_epi(pred_result) < 1.2 * l1d_epi(base_result)
