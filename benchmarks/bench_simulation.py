"""Simulator throughput benchmarks (instructions simulated per second).

These time the substrate itself rather than reproducing an exhibit: the
block-granularity design is what makes the reproduction feasible in pure
Python, and these benches quantify it and catch regressions.
"""

import time

import pytest

from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.sim.driver import RunSpec, execute
from repro.vm.vm import VMConfig, VirtualMachine
from repro.workloads.specjvm import build_benchmark

BUDGET = 500_000


def simulate(scheme: str) -> int:
    config = ExperimentConfig(max_instructions=BUDGET)
    result = execute(RunSpec(build_benchmark("db"), scheme, config))
    return result.instructions


@pytest.mark.parametrize("scheme", ["baseline", "bbv", "hotspot"])
def test_throughput_by_scheme(benchmark, scheme):
    # Each round times itself: with --benchmark-disable the fixture runs
    # the function once and keeps no statistics.
    seconds = []

    def timed_round():
        start = time.perf_counter()
        instructions = simulate(scheme)
        seconds.append(time.perf_counter() - start)
        return instructions

    instructions = benchmark.pedantic(timed_round, rounds=3, iterations=1)
    assert instructions >= BUDGET
    # Regression floor: the simulator should stay above ~0.2 M
    # instructions/second even on slow machines.
    assert sum(seconds) / len(seconds) < BUDGET / 200_000


def test_interpreter_only_throughput(benchmark):
    """VM + machine with the no-op policy on a hand-built workload."""

    def run():
        machine = build_machine(MachineConfig())
        vm = VirtualMachine(
            build_benchmark("compress").program,
            machine,
            config=VMConfig(hot_threshold=4),
        )
        vm.run(BUDGET)
        return machine.instructions

    instructions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert instructions >= BUDGET
