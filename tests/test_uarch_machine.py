"""Unit tests for the machine model (consume, reconfigure, snapshots)."""

import pytest

from repro.sim.config import MachineConfig, build_machine
from repro.trace.events import BlockEvent

KB = 1024


def make_event(n_insns=20, loads=(), stores=(), branch_pc=0x4000,
               taken=True, serialized=False):
    return BlockEvent(
        "m", "b", n_insns, list(loads), list(stores),
        branch_pc, taken, serialized=serialized,
    )


class TestConsume:
    def test_counters_advance(self, machine):
        cycles = machine.consume(make_event(n_insns=40, loads=[0x1000]))
        assert machine.instructions == 40
        assert machine.cycles == pytest.approx(cycles)
        assert cycles > 0

    def test_memory_traffic_reaches_l2(self, machine):
        machine.consume(make_event(loads=[0x1000, 0x2000]))
        assert machine.hierarchy.l1d.stats.read_misses == 2
        assert machine.hierarchy.l2.stats.accesses == 2

    def test_energy_accrues(self, machine):
        machine.consume(make_event(loads=[0x1000], stores=[0x2000]))
        assert machine.energy.l1d.dynamic_nj > 0
        assert machine.energy.l1d.leakage_nj > 0
        assert machine.energy.l2.dynamic_nj > 0

    def test_unconditional_block_skips_predictor(self, machine):
        machine.consume(make_event(branch_pc=None))
        assert machine.predictor.lookups == 0

    def test_conditional_block_trains_predictor(self, machine):
        machine.consume(make_event(branch_pc=0x4000, taken=True))
        assert machine.predictor.lookups == 1

    def test_serialized_block_costs_more(self, machine):
        ev1 = make_event(loads=[0x100000, 0x200000], serialized=False)
        cycles_fast = machine.consume(ev1)
        ev2 = make_event(loads=[0x300000, 0x400000], serialized=True)
        cycles_slow = machine.consume(ev2)
        assert cycles_slow > cycles_fast


class TestReconfiguration:
    def test_request_changes_setting(self, machine):
        assert machine.request_reconfiguration("L1D", 2) is True
        assert machine.cus["L1D"].current_index == 2
        assert machine.registers.read("L1D") == 2
        assert machine.applied_reconfigurations["L1D"] == 1

    def test_same_setting_is_free_success(self, machine):
        machine.request_reconfiguration("L1D", 1)
        count = machine.applied_reconfigurations["L1D"]
        assert machine.request_reconfiguration("L1D", 1) is True
        assert machine.applied_reconfigurations["L1D"] == count

    def test_guard_denies_rapid_changes(self, machine):
        machine.request_reconfiguration("L1D", 1)
        # No instructions retired since: inside the interval.
        assert machine.request_reconfiguration("L1D", 2) is False
        assert machine.denied_reconfigurations["L1D"] == 1
        assert machine.cus["L1D"].current_index == 1

    def test_guard_releases_after_interval(self, machine):
        machine.request_reconfiguration("L1D", 1)
        interval = machine.cus["L1D"].reconfiguration_interval
        while machine.instructions < interval:
            machine.consume(make_event(n_insns=100, branch_pc=None))
        assert machine.request_reconfiguration("L1D", 2) is True

    def test_l1_flush_writebacks_go_to_l2(self, machine):
        machine.consume(make_event(stores=[0x0]))  # dirty line in set 0
        # Shrinking keeps set 0; use a high-set dirty line instead.
        new_sets = machine.hierarchy.l1d.sizes[-1] // (64 * 2)
        addr = new_sets * 64
        machine.consume(make_event(stores=[addr]))
        l2_writes = machine.hierarchy.l2.stats.write_accesses
        machine.request_reconfiguration("L1D", 3)
        assert machine.hierarchy.l2.stats.write_accesses > l2_writes
        assert machine.energy.l1d.reconfig_nj > 0

    def test_l2_flush_writebacks_go_to_memory(self, machine):
        new_sets = machine.hierarchy.l2.sizes[-1] // (128 * 4)
        addr = new_sets * 128
        machine.consume(make_event(stores=[addr] * 3))
        # Let the write miss fill L2 and dirty it via L1 eviction; force
        # eviction by conflicting lines.
        n_sets = machine.hierarchy.l1d.n_sets
        for i in range(1, 4):
            machine.consume(
                make_event(loads=[addr + i * n_sets * 64])
            )
        mem_writes = machine.hierarchy.memory_writes
        machine.request_reconfiguration("L2", 3)
        assert machine.hierarchy.memory_writes >= mem_writes

    def test_energy_repriced_after_resize(self, machine):
        machine.request_reconfiguration("L1D", 3)
        start = machine.energy.l1d.dynamic_nj
        machine.consume(make_event(loads=[0x1000]))
        small_cost = machine.energy.l1d.dynamic_nj - start
        # Compare with a fresh machine at maximum size.
        big = build_machine(MachineConfig())
        big.consume(make_event(loads=[0x1000]))
        assert small_cost < big.energy.l1d.dynamic_nj

    def test_reconfiguration_log(self):
        machine = build_machine(
            MachineConfig(record_reconfigurations=True)
        )
        machine.request_reconfiguration("L1D", 1, actor="test")
        assert len(machine.reconfiguration_log) == 1
        record = machine.reconfiguration_log[0]
        assert record.cu == "L1D"
        assert record.actor == "test"
        assert record.to_index == 1


class TestSnapshots:
    def test_delta_computes_window(self, machine):
        before = machine.snapshot()
        machine.consume(make_event(n_insns=50, loads=[0x1000]))
        delta = machine.snapshot().delta(before)
        assert delta.instructions == 50
        assert delta.cycles > 0
        assert delta.l1d_energy_nj == (
            machine.energy.l1d.total_nj - before.l1d_energy_nj
        )
        assert 0 < delta.ipc < 5

    def test_delta_energy_fields(self, machine):
        before = machine.snapshot()
        machine.consume(make_event(loads=[0x1000], stores=[0x2000]))
        delta = machine.snapshot().delta(before)
        assert delta.l1d_energy_nj > 0
        assert delta.l2_dynamic_nj > 0

    def test_tuning_energy_metric_l1d(self, machine):
        before = machine.snapshot()
        machine.consume(make_event(loads=[0x1000]))
        delta = machine.snapshot().delta(before)
        metric = delta.tuning_energy_metric("L1D", machine)
        assert metric == pytest.approx(
            delta.l1d_energy_nj + delta.l2_dynamic_nj
        )

    def test_tuning_energy_metric_l2(self, machine):
        before = machine.snapshot()
        machine.consume(make_event(loads=[0x1000]))
        delta = machine.snapshot().delta(before)
        metric = delta.tuning_energy_metric("L2", machine)
        assert metric == pytest.approx(
            delta.l2_energy_nj + delta.memory_nj
        )

    def test_unknown_cu_metric_rejected(self, machine):
        before = machine.snapshot()
        machine.consume(make_event())
        delta = machine.snapshot().delta(before)
        with pytest.raises(KeyError):
            delta.tuning_energy_metric("IQ", machine)


class TestMethodEntry:
    def test_instruction_fetch_charges_cycles(self, machine):
        cycles = machine.on_method_entry("m", 2048)
        assert cycles > 0
        assert machine.cycles == pytest.approx(cycles)

    def test_resident_method_is_free(self, machine):
        machine.on_method_entry("m", 2048)
        assert machine.on_method_entry("m", 2048) == 0.0


class TestPipelineCUs:
    def test_build_with_pipeline_cus(self):
        machine = build_machine(MachineConfig(enable_pipeline_cus=True))
        assert "IQ" in machine.cus and "ROB" in machine.cus
        assert "IQ" in machine.energy.pipeline
        machine.request_reconfiguration("IQ", 2)
        assert machine.timing.ilp_factor < 1.0
        # Pipeline energy repriced at the smaller setting.
        assert machine.energy.pipeline["IQ"].current_entries == 32
