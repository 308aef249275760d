"""Edge cases and failure injection across the stack."""

import pytest

from repro.core.framework import ACEFramework
from repro.core.policy import HotspotACEPolicy
from repro.isa.builder import ProgramBuilder
from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.trace.events import BlockEvent
from repro.uarch.cache import Cache
from repro.vm.vm import VMConfig, VirtualMachine
from repro.workloads.specjvm import build_benchmark
from tests.conftest import make_loop_program

KB = 1024


def single_block_program():
    return (
        ProgramBuilder(entry="main")
        .method("main").ret("only", insns=5).done()
        .build()
    )


class TestTinyPrograms:
    def test_single_block_program_terminates(self):
        vm = VirtualMachine(
            single_block_program(),
            build_machine(MachineConfig()),
            config=VMConfig(),
        )
        vm.run(1_000_000)
        assert vm.threads[0].finished
        assert vm.machine.instructions == 5

    def test_budget_smaller_than_program(self):
        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            config=VMConfig(),
        )
        vm.run(1)
        assert vm.machine.instructions >= 1

    def test_policy_on_program_with_no_hotspots(self):
        policy = HotspotACEPolicy()
        vm = VirtualMachine(
            single_block_program(),
            build_machine(MachineConfig()),
            policy=policy,
            config=VMConfig(hot_threshold=4),
        )
        vm.run(1_000)
        stats = policy.finalize()
        assert stats.managed_hotspots == 0
        assert stats.per_hotspot_ipc_cov == 0.0
        assert stats.inter_hotspot_ipc_cov == 0.0

    def test_framework_on_trivial_program(self):
        report = ACEFramework().run(
            single_block_program(), max_instructions=100
        )
        assert report.hotspots_detected == 0
        assert report.l1d_energy_reduction == pytest.approx(0.0, abs=0.05)


class TestDegenerateEvents:
    def test_zero_instruction_block_event(self, machine):
        event = BlockEvent("m", "b", 0, [], [], None, True)
        cycles = machine.consume(event)
        assert cycles == 0.0
        assert machine.instructions == 0

    def test_event_with_only_stores(self, machine):
        event = BlockEvent("m", "b", 4, [], [0x100, 0x140], None, True)
        machine.consume(event)
        assert machine.hierarchy.l1d.stats.write_accesses == 2


class TestGuardStorm:
    def test_rapid_fire_requests_do_not_wedge(self, machine):
        granted = 0
        for i in range(100):
            if machine.request_reconfiguration("L1D", i % 4):
                granted += 1
        # Only the first change is granted (no instructions retire
        # in between), plus free same-setting requests.
        assert granted >= 1
        assert machine.denied_reconfigurations["L1D"] > 0
        # The machine remains usable.
        machine.consume(
            BlockEvent("m", "b", 10, [0x100], [], None, True)
        )


class TestCacheDegenerate:
    def test_minimum_geometry(self):
        # One set, one way.
        cache = Cache("tiny", 64, 64, 1, sizes=(64,))
        assert cache.n_sets == 1
        cache.access(0x0)
        cache.access(0x40)  # evicts
        assert not cache.contains(0x0)

    def test_fully_associative_like(self):
        cache = Cache("fa", 512, 64, 8, sizes=(512,))
        assert cache.n_sets == 1
        for i in range(8):
            cache.access(i * 64)
        assert cache.resident_lines == 8

    def test_empty_access_batch(self):
        cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        result = cache.access_many([], [])
        assert result.accesses == 0
        assert result.miss_lines == []


class TestFrameworkCompare:
    def test_compare_runs_multiple_schemes(self):
        framework = ACEFramework()
        reports = framework.compare(
            make_loop_program(trips=30, span=256),
            max_instructions=300_000,
            schemes=("hotspot", "bbv", "positional"),
        )
        assert set(reports) == {"hotspot", "bbv", "positional"}
        for report in reports.values():
            assert report.instructions >= 300_000

    def test_compare_rejects_unknown_scheme(self):
        framework = ACEFramework()
        with pytest.raises(ValueError):
            framework.compare(
                make_loop_program(), 10_000, schemes=("oracle",)
            )


class TestMultiCUClassification:
    def test_leaves_fall_into_pipeline_cu_band(self):
        config = ExperimentConfig(
            machine=MachineConfig(enable_pipeline_cus=True),
            max_instructions=400_000,
        )
        from repro.sim.driver import RunSpec, execute

        policy = HotspotACEPolicy(tuning=config.tuning)
        execute(RunSpec(
            build_benchmark("db"), "hotspot", config, policy=policy
        ))
        kinds = set(policy.kind_of.values())
        # With IQ/ROB at a 100-instruction scaled interval, tiny leaf
        # methods (size 50-500) become managed pipeline-CU hotspots.
        assert kinds & {"IQ", "ROB"}, kinds
