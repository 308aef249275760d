"""Scale-validity study — slowdown inflation is a scale artifact.

EXPERIMENTS.md's main deviation: at the reproduction's 1/100 interval
scale, absolute slowdowns run ~4x the paper's, because measurement
windows shrink 100x (noise vs. the 2 % threshold) while reconfiguration
refill costs do not shrink at all.  If that explanation is right, the
adaptive slowdown must *fall* as the interval scale grows toward the
paper's — everything else held equal.  This bench sweeps the interval
scale over 4x (with the workload's hotspot sizes and the instruction
budget tracking it, so all paper ratios stay fixed) and asserts the
trend.
"""

import dataclasses

import pytest

from repro.sim.config import ExperimentConfig, MachineConfig, ScaledParameters
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark

BENCH = "db"
BASE_SCALE = 0.01
#: (interval scale, instruction budget) — budget tracks the scale so each
#: run sees the same number of phases/intervals/invocations.
POINTS = [(0.005, 3_000_000), (0.01, 6_000_000), (0.02, 12_000_000)]


def run_at_scale(scale: float, budget: int):
    config = ExperimentConfig(
        machine=MachineConfig(params=ScaledParameters(scale=scale)),
        max_instructions=budget,
    )
    size_scale = scale / BASE_SCALE
    hotspot = execute(RunSpec(
        build_benchmark(BENCH, size_scale=size_scale), "hotspot", config
    ))
    baseline = execute(RunSpec(
        build_benchmark(BENCH, size_scale=size_scale), "baseline", config
    ))
    base_cpi = baseline.cycles / baseline.instructions
    cpi = hotspot.cycles / hotspot.instructions

    def epi(run, attr):
        return getattr(run, attr) / run.instructions

    return {
        "slowdown": cpi / base_cpi - 1,
        "l1d_reduction": 1 - epi(hotspot, "l1d_energy_nj")
        / epi(baseline, "l1d_energy_nj"),
    }


@pytest.fixture(scope="module")
def sweep():
    return {
        scale: run_at_scale(scale, budget) for scale, budget in POINTS
    }


def test_slowdown_shrinks_toward_paper_scale(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for scale, _budget in POINTS:
        m = sweep[scale]
        print(
            f"  scale 1/{1 / scale:.0f}: slowdown {m['slowdown']:.2%}, "
            f"L1D reduction {m['l1d_reduction']:.1%}"
        )
    finest = sweep[POINTS[0][0]]["slowdown"]
    coarsest = sweep[POINTS[-1][0]]["slowdown"]
    assert coarsest < finest + 0.01, (
        "slowdown should fall (or at worst hold) as the interval scale "
        "approaches the paper's — the inflation is a scale artifact"
    )


def test_savings_stable_across_scales(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    reductions = [sweep[scale]["l1d_reduction"] for scale, _ in POINTS]
    # The energy result is ratio-driven and should not swing wildly with
    # the scale choice.
    assert max(reductions) - min(reductions) < 0.35
    assert all(r > 0.2 for r in reductions)
