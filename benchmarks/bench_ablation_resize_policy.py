"""Ablation — cache resize semantics: selective-sets vs. full flush.

DESIGN.md §6 notes the reproduction models resizing with selective-sets
semantics (surviving lines retained).  This bench quantifies the
alternative: with ``resize_policy="flush"`` every resize invalidates the
whole cache, inflating the reconfiguration cost the framework pays.  The
comparison shows (a) why selective hardware matters for fine-grain
adaptation and (b) that the headline savings do not depend on the
optimistic model — energy stays in the same regime under full flush, at a
higher performance price.
"""

import pytest

from benchmarks.conftest import ABLATION_BUDGET
from repro.sim.config import ExperimentConfig, MachineConfig
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark

BENCH = "db"


def run(resize_policy: str):
    config = ExperimentConfig(
        machine=MachineConfig(resize_policy=resize_policy),
        max_instructions=ABLATION_BUDGET,
    )
    hotspot = execute(RunSpec(build_benchmark(BENCH), "hotspot", config))
    baseline = execute(RunSpec(build_benchmark(BENCH), "baseline", config))
    return hotspot, baseline


@pytest.fixture(scope="module")
def runs():
    return {policy: run(policy) for policy in ("selective", "flush")}


def metrics(pair):
    hotspot, baseline = pair
    base_cpi = baseline.cycles / baseline.instructions
    cpi = hotspot.cycles / hotspot.instructions

    def epi(run, attr):
        return getattr(run, attr) / run.instructions

    return {
        "slowdown": cpi / base_cpi - 1,
        "l1d_reduction": 1 - epi(hotspot, "l1d_energy_nj")
        / epi(baseline, "l1d_energy_nj"),
        "l2_reduction": 1 - epi(hotspot, "l2_energy_nj")
        / epi(baseline, "l2_energy_nj"),
    }


def test_flush_policy_costs_more_performance(benchmark, runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    selective = metrics(runs["selective"])
    flush = metrics(runs["flush"])
    for name, m in (("selective", selective), ("flush", flush)):
        print(
            f"  {name:9s} slowdown {m['slowdown']:.2%} "
            f"L1D {m['l1d_reduction']:.1%} L2 {m['l2_reduction']:.1%}"
        )
    assert flush["slowdown"] >= selective["slowdown"] - 0.01, (
        "full-flush resizing should not be cheaper than selective"
    )


def test_savings_survive_conservative_model(benchmark, runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    flush = metrics(runs["flush"])
    # The headline result does not hinge on the optimistic resize model.
    assert flush["l1d_reduction"] > 0.2
    assert flush["l2_reduction"] > 0.2
