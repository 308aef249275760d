"""Ablation — CU decoupling on vs. off (the paper's central mechanism).

With decoupling disabled, every managed hotspot tunes the full
combinatorial configuration list of all CUs (16 instead of 4), and small
hotspots keep issuing L2 reconfiguration requests the hardware guard must
reject.  The paper's claim (§3.2.1, Table 1): decoupling significantly
reduces the tuning process.  Expected ablation shape: without decoupling,
tuning takes more trials per hotspot, fewer hotspots finish, and denied
reconfiguration requests appear.
"""

import pytest

from benchmarks.conftest import ABLATION_BUDGET
from repro.core.policy import HotspotACEPolicy
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark

BENCHES = ("db", "jess")


def run_with_decoupling(decoupling: bool):
    config = ExperimentConfig(max_instructions=ABLATION_BUDGET)
    results = {}
    for name in BENCHES:
        policy = HotspotACEPolicy(
            tuning=config.tuning, decoupling=decoupling
        )
        result = execute(RunSpec(
            build_benchmark(name), "hotspot", config, policy=policy
        ))
        results[name] = (result, policy.finalize(), policy.blocked_trials)
    return results


@pytest.fixture(scope="module")
def ablation():
    return {
        True: run_with_decoupling(True),
        False: run_with_decoupling(False),
    }


def test_decoupling_shrinks_config_lists(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in BENCHES:
        _, decoupled, _ = ablation[True][name]
        _, combinatorial, _ = ablation[False][name]
        # Trials per tuned hotspot: 4-ish vs 16-ish.
        d_trials = sum(decoupled.tunings.values()) / max(
            1, decoupled.managed_hotspots
        )
        c_trials = sum(combinatorial.tunings.values()) / max(
            1, combinatorial.managed_hotspots
        )
        print(
            f"{name}: trials/hotspot decoupled={d_trials:.1f} "
            f"combinatorial={c_trials:.1f}"
        )
        assert c_trials > d_trials, (
            f"{name}: combinatorial tuning should need more trials"
        )


def test_decoupling_improves_tuning_completion(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    total_decoupled = 0
    total_combinatorial = 0
    for name in BENCHES:
        _, decoupled, _ = ablation[True][name]
        _, combinatorial, _ = ablation[False][name]
        total_decoupled += decoupled.tuned_fraction
        total_combinatorial += combinatorial.tuned_fraction
    assert total_decoupled >= total_combinatorial, (
        "decoupled tuning should complete at least as often"
    )


def test_no_decoupling_blocks_trials_on_the_guard(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    blocked = sum(ablation[False][name][2] for name in BENCHES)
    blocked_decoupled = sum(ablation[True][name][2] for name in BENCHES)
    print(f"blocked trials: combinatorial={blocked} "
          f"decoupled={blocked_decoupled}")
    # Small hotspots requesting slow-CU changes run into the
    # reconfiguration-interval guard and must retry.
    assert blocked > blocked_decoupled
