"""Additional VM behaviour tests: preloading, quantum, detection edges."""

from dataclasses import replace

import pytest

from repro.sim.config import L1D_CONFIG, MachineConfig, build_machine
from repro.uarch.cache import TwoWayCache
from repro.vm.fastvm import FastVirtualMachine
from repro.vm.hotspot import DODatabase
from repro.vm.vm import AdaptationHooks, VMConfig, VirtualMachine
from tests.conftest import make_loop_program, make_two_tier_program


class DetectionRecorder(AdaptationHooks):
    def __init__(self):
        self.detected = []

    def on_hotspot_detected(self, hotspot, vm):
        self.detected.append(
            (hotspot.name, vm.machine.instructions)
        )


class TestPreloading:
    def make_database(self):
        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            config=VMConfig(hot_threshold=3),
        )
        vm.run(60_000)
        assert "work" in vm.database.hotspots
        return DODatabase.from_dict(vm.database.to_dict())

    def test_preloaded_hotspots_announced_before_execution(self):
        preload = self.make_database()
        policy = DetectionRecorder()
        VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            policy=policy,
            config=VMConfig(hot_threshold=3),
            preload_database=preload,
        )
        # Announced at construction time, before any instruction ran.
        assert ("work", 0) in policy.detected

    def test_preloaded_hotspot_instrumented_from_first_invocation(self):
        preload = self.make_database()
        entries = []

        class StubPolicy(AdaptationHooks):
            def on_hotspot_detected(self, hotspot, vm):
                from repro.vm.jit import EntryStub

                vm.jit.patch_entry(
                    hotspot.name,
                    EntryStub(
                        "t",
                        lambda info, act, vm_: entries.append(
                            vm_.database.profile(info.name).invocations
                        ),
                    ),
                )

        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            policy=StubPolicy(),
            config=VMConfig(hot_threshold=3),
            preload_database=preload,
        )
        vm.run(20_000)
        assert entries and entries[0] == 1  # very first invocation

    def test_preload_with_unknown_methods_is_safe(self):
        database = DODatabase()
        profile = database.profile("ghost_method")
        profile.mean_size = 1000.0
        profile.completed_invocations = 5
        profile.is_hot = True
        preload = DODatabase.from_dict(database.to_dict())
        policy = DetectionRecorder()
        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            policy=policy,
            config=VMConfig(hot_threshold=3),
            preload_database=preload,
        )
        vm.run(10_000)
        # Ghost methods are not announced (not in this program).
        assert all(name != "ghost_method" for name, _ in policy.detected)


class TestDetectionEdges:
    def test_threshold_one_promotes_on_second_invocation(self):
        policy = DetectionRecorder()
        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            policy=policy,
            config=VMConfig(hot_threshold=1),
        )
        vm.run(30_000)
        assert policy.detected
        # Promotion needs one *completed* invocation for a size estimate,
        # so it fires on the second entry.
        assert vm.database.profile("work").detected_at_invocation == 2

    def test_detection_time_recorded(self):
        policy = DetectionRecorder()
        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            policy=policy,
            config=VMConfig(hot_threshold=5),
        )
        vm.run(60_000)
        name, at = policy.detected[0]
        assert name == "work"
        info = vm.database.hotspots["work"]
        assert info.detected_at_instructions == at
        assert at > 0


class TestQuantum:
    def test_budget_respected_with_large_quantum(self):
        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            config=VMConfig(quantum_blocks=100_000),
        )
        vm.run(15_000)
        # The budget check runs inside the quantum loop.
        assert vm.machine.instructions < 15_500

    def test_small_quantum_interleaves_finely(self):
        seen = []

        class ThreadRecorder(AdaptationHooks):
            def on_block(self, event, machine):
                if not seen or seen[-1] != event.thread_id:
                    seen.append(event.thread_id)

        vm = VirtualMachine(
            make_loop_program(),
            build_machine(MachineConfig()),
            policy=ThreadRecorder(),
            config=VMConfig(quantum_blocks=10),
            thread_entries=["main", "main"],
        )
        vm.run(30_000)
        assert len(seen) > 10  # many switches


class TestInstructionsInsideHotspots:
    def test_nested_hotspot_coverage_not_double_counted(self):
        vm = VirtualMachine(
            make_two_tier_program(),
            build_machine(MachineConfig()),
            config=VMConfig(hot_threshold=3),
        )
        vm.run(200_000)
        assert (
            vm.stats.instructions_in_hotspots <= vm.machine.instructions
        )
        # Both tiers are hot, so coverage is near-total.
        assert (
            vm.stats.instructions_in_hotspots
            > 0.8 * vm.machine.instructions
        )


class TestFastKernelL1D:
    """The fast kernel's runners update a 2-way L1D's rank arrays, so
    any other L1D is refused when the VM is built."""

    def test_two_way_l1d_is_the_rank_array_cache(self):
        machine = build_machine(MachineConfig())
        assert isinstance(machine.hierarchy.l1d, TwoWayCache)
        assert not isinstance(machine.hierarchy.l2, TwoWayCache)

    def test_four_way_l1d_is_refused_at_build(self):
        four_way = MachineConfig(l1d=replace(L1D_CONFIG, associativity=4))
        with pytest.raises(ValueError, match="L1D .*associativity 4"):
            FastVirtualMachine(make_loop_program(), build_machine(four_way))
        # The reference kernel runs any associativity.
        VirtualMachine(make_loop_program(), build_machine(four_way)).run(
            20_000
        )
