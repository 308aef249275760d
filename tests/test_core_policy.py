"""End-to-end tests of the hotspot ACE policy on small programs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import HotspotACEPolicy, _InvocationToken
from repro.core.tuning import TuningPhase
from repro.sim.config import MachineConfig, build_machine
from repro.trace.events import BlockEvent
from repro.vm.vm import VMConfig, VirtualMachine
from tests.conftest import make_loop_program, make_two_tier_program


def run_policy(program, max_instructions=400_000, policy=None,
               hot_threshold=3, thread_entries=None):
    machine = build_machine(MachineConfig())
    policy = policy or HotspotACEPolicy()
    vm = VirtualMachine(
        program, machine,
        policy=policy,
        config=VMConfig(hot_threshold=hot_threshold),
        thread_entries=thread_entries,
    )
    vm.run(max_instructions)
    return vm, policy


class TestLifecycle:
    def test_hotspot_detected_and_managed(self):
        vm, policy = run_policy(make_loop_program(trips=30))
        # work is ~30*38 insns ~ 1.1K inclusive: L1D band.
        assert "work" in policy.states
        assert policy.kind_of["work"] == "L1D"

    def test_tuning_completes_and_config_code_installed(self):
        vm, policy = run_policy(make_loop_program(trips=30))
        state = policy.states["work"]
        assert state.phase is TuningPhase.CONFIGURED
        assert state.best is not None
        assert policy.ever_tuned["work"]
        stub = vm.jit.entry_stub("work")
        assert stub is not None and stub.kind == "config"

    def test_small_working_set_downsizes_l1d(self):
        vm, policy = run_policy(
            make_loop_program(trips=30, span=256), max_instructions=600_000
        )
        state = policy.states["work"]
        # 256B working set fits every size; energy prefers the smallest.
        assert state.best.config[0] >= 2

    def test_tiny_hotspots_unmanaged(self):
        vm, policy = run_policy(make_loop_program(trips=2, body_insns=10))
        assert "work" in policy.unmanaged
        assert vm.jit.entry_stub("work") is None

    def test_two_tier_nesting_assigns_both_cus(self):
        vm, policy = run_policy(
            make_two_tier_program(), max_instructions=800_000
        )
        kinds = {policy.kind_of[n] for n in policy.states}
        assert "L1D" in kinds and "L2" in kinds

    def test_coverage_accounting(self):
        vm, policy = run_policy(
            make_loop_program(trips=30), max_instructions=600_000
        )
        stats = policy.finalize()
        assert 0.0 < stats.coverage["L1D"] <= 1.0
        # Coverage depths must balance at the end of the run (at most the
        # in-flight activation per thread).
        for depths in policy._cov_depth.values():
            assert all(d >= 0 for d in depths)

    def test_trials_and_reconfigs_counted(self):
        vm, policy = run_policy(
            make_loop_program(trips=30, span=256),
            max_instructions=600_000,
        )
        stats = policy.finalize()
        assert stats.tunings["L1D"] >= 1
        assert stats.reconfigs["L1D"] >= 0
        assert stats.managed_hotspots == 1
        assert stats.tuned_hotspots == 1

    def test_per_hotspot_ipc_stats(self):
        vm, policy = run_policy(
            make_loop_program(trips=30), max_instructions=600_000
        )
        stats = policy.finalize()
        assert "work" in stats.hotspot_mean_ipc
        assert stats.hotspot_mean_ipc["work"] > 0


class TestDecouplingAblation:
    def test_no_decoupling_tunes_all_cus(self):
        policy = HotspotACEPolicy(decoupling=False)
        vm, policy = run_policy(
            make_two_tier_program(), policy=policy,
            max_instructions=400_000,
        )
        for state in policy.states.values():
            assert set(state.cu_names) == {"L1D", "L2"}
            assert len(state.config_list) == 16

    def test_decoupled_config_lists_are_small(self):
        vm, policy = run_policy(make_two_tier_program())
        for state in policy.states.values():
            assert len(state.config_list) == 4


class TestRetuning:
    def test_retuning_disabled(self):
        policy = HotspotACEPolicy(enable_retuning=False)
        vm, policy = run_policy(
            make_loop_program(trips=30), policy=policy,
            max_instructions=600_000,
        )
        assert policy.retunes == 0

    def test_stable_workload_rarely_retunes(self):
        vm, policy = run_policy(
            make_loop_program(trips=30), max_instructions=800_000
        )
        assert policy.retunes <= 1


class TestStatsFinalize:
    def test_finalize_fields(self):
        vm, policy = run_policy(
            make_two_tier_program(), max_instructions=600_000
        )
        stats = policy.finalize()
        assert stats.managed_hotspots == len(policy.states)
        assert set(stats.tunings) == {"L1D", "L2"}
        assert stats.tuned_fraction <= 1.0
        assert stats.hotspots_by_kind
        total_by_kind = sum(stats.hotspots_by_kind.values())
        assert total_by_kind == (
            stats.managed_hotspots + stats.unmanaged_hotspots
        )

    def test_on_run_end_populates_final_stats(self):
        vm, policy = run_policy(make_loop_program())
        assert hasattr(policy, "final_stats")
        assert policy.final_stats.managed_hotspots >= 0


class TestPrediction:
    def test_predictor_seeds_config_list(self):
        from repro.core.prediction import (
            FootprintPredictor,
            install_program_for_prediction,
        )

        program = make_loop_program(trips=30, span=256)
        machine = build_machine(MachineConfig())
        install_program_for_prediction(machine, program)
        policy = HotspotACEPolicy(predictor=FootprintPredictor())
        vm = VirtualMachine(
            program, machine, policy=policy,
            config=VMConfig(hot_threshold=3),
        )
        vm.run(300_000)
        state = policy.states["work"]
        # 256B footprint * 1.5 headroom -> smallest (1 KB) cache, hoisted
        # right after the reference.
        assert state.config_list[1] == (3,)
        assert policy.predictor.predictions >= 1


class TestSamplingWindow:
    """The sampling code reads IPC from its token's (instructions,
    cycles) pair instead of two machine snapshots."""

    @given(
        windows=st.lists(
            st.lists(
                st.tuples(
                    st.integers(1, 200),
                    st.lists(st.integers(0, 1 << 20), max_size=6),
                    st.lists(st.integers(0, 1 << 20), max_size=4),
                    st.booleans(),
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        ),
        resize=st.sampled_from([None, 0, 1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_token_ipc_equals_snapshot_delta(self, windows, resize):
        machine = build_machine(MachineConfig())
        for window in windows:
            token = _InvocationToken("sample", (0,), machine)
            before = machine.snapshot()
            if resize is not None:
                machine.request_reconfiguration("L1D", resize, "test")
            for n_insns, loads, stores, taken in window:
                machine.consume(
                    BlockEvent(
                        "m", "b", n_insns, [a * 8 for a in loads],
                        [a * 8 for a in stores], 0x4000, taken,
                    )
                )
            delta = machine.snapshot().delta(before)
            for minimum in (0, 1, delta.instructions, delta.instructions + 1):
                ipc = token.window_ipc(machine, minimum)
                if delta.instructions < minimum or delta.cycles <= 0:
                    assert ipc is None
                else:
                    assert ipc == delta.ipc
