"""Fuzzing: the full stack must hold its invariants on arbitrary
well-formed programs, not just the calibrated stand-ins."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import HotspotACEPolicy
from repro.phases.policy import BBVACEPolicy
from repro.sim.config import MachineConfig, build_machine
from repro.vm.vm import AdaptationHooks, VMConfig, VirtualMachine
from repro.workloads.synthetic import random_program


def run_policy_on(program, policy, budget=60_000):
    machine = build_machine(MachineConfig())
    vm = VirtualMachine(
        program, machine, policy=policy,
        config=VMConfig(hot_threshold=2),
    )
    vm.run(budget)
    return vm


def check_invariants(vm):
    machine = vm.machine
    assert machine.cycles > 0
    assert machine.instructions > 0
    assert machine.energy.l1d.total_nj >= 0
    assert machine.energy.l2.total_nj >= 0
    assert machine.energy.memory_nj >= 0
    assert 0 <= vm.stats.instructions_in_hotspots <= machine.instructions
    l1 = machine.hierarchy.l1d
    assert l1.resident_lines <= l1.n_lines
    assert 0.0 <= l1.stats.miss_rate <= 1.0


class TestFuzzPolicies:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=12, deadline=None)
    def test_hotspot_policy_on_random_programs(self, seed):
        program = random_program(seed)
        policy = HotspotACEPolicy()
        vm = run_policy_on(program, policy)
        check_invariants(vm)
        stats = policy.finalize()
        for value in stats.coverage.values():
            assert 0.0 <= value <= 1.0
        assert stats.tuned_hotspots <= stats.managed_hotspots

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_bbv_policy_on_random_programs(self, seed):
        program = random_program(seed)
        policy = BBVACEPolicy()
        vm = run_policy_on(program, policy)
        check_invariants(vm)
        stats = policy.finalize()
        assert stats.tuned_phases <= stats.n_phases
        assert (
            stats.intervals_in_tuned_phases <= stats.intervals_total
        )

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=12, deadline=None)
    def test_adaptive_and_static_execute_same_stream(self, seed):
        program = random_program(seed)
        adaptive = run_policy_on(program, HotspotACEPolicy())
        static = run_policy_on(program, AdaptationHooks())
        # Adaptation must not change the executed instruction stream.
        assert (
            adaptive.machine.instructions == static.machine.instructions
        )
        assert (
            adaptive.stats.blocks_executed == static.stats.blocks_executed
        )
