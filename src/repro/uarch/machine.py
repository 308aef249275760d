"""The machine model: consumes block events, produces time and energy.

This is the reproduction's substitute for Dynamic SimpleScalar's simulated
hardware: it owns the cache hierarchy, branch predictor, timing model,
energy model, configurable units, control registers, and the
reconfiguration-interval guard (paper §3.4).  Adaptation policies interact
with it only through :meth:`request_reconfiguration` — the "special
instruction writing a control register" of the paper — and through
snapshots for measuring a configuration's quality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.energy.model import EnergyModel
from repro.obs.events import (
    CACHE_RESIZE,
    NULL_TELEMETRY,
    RECONFIG_APPLIED,
    RECONFIG_DENIED,
)
from repro.trace.events import BlockEvent
from repro.uarch.cu import ConfigurableUnit
from repro.uarch.hierarchy import CacheHierarchy
from repro.uarch.branch import BimodalPredictor
from repro.uarch.registers import ControlRegisterFile, ReconfigurationGuard
from repro.uarch.timing import TimingModel


class MachineSnapshot:
    """Immutable copy of the machine's cumulative counters.

    Policies snapshot at a hotspot entry / interval start and subtract at
    the exit / interval end to obtain per-invocation measurements.
    """

    __slots__ = (
        "instructions",
        "cycles",
        "l1d_energy_nj",
        "l2_energy_nj",
        "l2_dynamic_nj",
        "memory_nj",
        "pipeline_nj",
    )

    def __init__(self, machine: "MachineModel"):
        self.instructions = machine.instructions
        self.cycles = machine.cycles
        energy = machine.energy
        self.l1d_energy_nj = energy.l1d.total_nj
        l2 = energy.l2
        self.l2_energy_nj = l2.total_nj
        self.l2_dynamic_nj = l2.dynamic_nj
        self.memory_nj = energy.memory_nj
        self.pipeline_nj = {
            name: component.energy_nj
            for name, component in energy.pipeline.items()
        }

    def delta(self, earlier: "MachineSnapshot") -> "SnapshotDelta":
        return SnapshotDelta(earlier, self)


class SnapshotDelta:
    """Difference between two snapshots: one measurement window."""

    __slots__ = (
        "instructions",
        "cycles",
        "l1d_energy_nj",
        "l2_energy_nj",
        "l2_dynamic_nj",
        "memory_nj",
        "pipeline_nj",
    )

    def __init__(self, start: MachineSnapshot, end: MachineSnapshot):
        self.instructions = end.instructions - start.instructions
        self.cycles = end.cycles - start.cycles
        self.l1d_energy_nj = end.l1d_energy_nj - start.l1d_energy_nj
        self.l2_energy_nj = end.l2_energy_nj - start.l2_energy_nj
        self.l2_dynamic_nj = end.l2_dynamic_nj - start.l2_dynamic_nj
        self.memory_nj = end.memory_nj - start.memory_nj
        self.pipeline_nj = {
            name: end.pipeline_nj[name] - start.pipeline_nj.get(name, 0.0)
            for name in end.pipeline_nj
        }

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    def tuning_energy_metric(self, cu_name: str, machine: "MachineModel") -> float:
        """Energy attributable to a CU's configuration choice in this window.

        For the L1D CU: its own energy plus the L2 dynamic energy its misses
        induce.  For the L2 CU: its own energy plus memory energy.  This is
        the quantity the tuning algorithms minimise ("most energy-efficient
        configuration", paper §3.2.2) — a downsizing that merely pushes
        energy downstream must not win.
        """
        if cu_name == machine.l1d_cu_name:
            return self.l1d_energy_nj + self.l2_dynamic_nj
        if cu_name == machine.l2_cu_name:
            return self.l2_energy_nj + self.memory_nj
        if cu_name in self.pipeline_nj:
            # Pipeline CUs (IQ/ROB extension): their own per-cycle energy
            # is the direct cost of the setting.
            return self.pipeline_nj[cu_name]
        raise KeyError(f"no tuning metric for CU {cu_name!r}")


class ReconfigurationRecord:
    """One granted reconfiguration, for logs and Table 6 accounting."""

    __slots__ = ("at_instructions", "cu", "from_index", "to_index", "actor")

    def __init__(self, at_instructions, cu, from_index, to_index, actor):
        self.at_instructions = at_instructions
        self.cu = cu
        self.from_index = from_index
        self.to_index = to_index
        self.actor = actor

    def __repr__(self) -> str:
        return (
            f"Reconfig(@{self.at_instructions}, {self.cu}: "
            f"{self.from_index}->{self.to_index}, by {self.actor})"
        )


class MachineModel:
    """Simulated hardware platform."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        predictor: BimodalPredictor,
        timing: TimingModel,
        energy: EnergyModel,
        cus: Dict[str, ConfigurableUnit],
        record_reconfigurations: bool = False,
    ):
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.timing = timing
        self.energy = energy
        self.cus = dict(cus)
        self.registers = ControlRegisterFile()
        self.guard = ReconfigurationGuard()
        for name, cu in self.cus.items():
            self.registers.define(name, cu.current_index)
            self.guard.register(name, cu.reconfiguration_interval)
        self.instructions = 0
        self.cycles = 0.0
        self.applied_reconfigurations: Dict[str, int] = {
            name: 0 for name in self.cus
        }
        self.denied_reconfigurations: Dict[str, int] = {
            name: 0 for name in self.cus
        }
        self.reconfiguration_log: Optional[List[ReconfigurationRecord]] = (
            [] if record_reconfigurations else None
        )
        self.l1d_cu_name = hierarchy.l1d.name
        self.l2_cu_name = hierarchy.l2.name
        #: Telemetry sink; the VM swaps in a live session when tracing.
        self.telemetry = NULL_TELEMETRY
        #: Optional :class:`repro.faults.FaultPlan` — when set, its
        #: ``reconfig_deny`` site injects denials on top of the guard.
        self.fault_plan = None

    # -- execution hot path -------------------------------------------------

    def consume(self, event: BlockEvent) -> float:
        """Run one block through the machine; returns its cycles."""
        traffic = self.hierarchy.data_access(event.loads, event.stores)
        mispredicts = 0
        branch_pc = event.branch_pc
        if branch_pc is not None and self.predictor.predict_and_update(
            branch_pc, event.taken
        ):
            mispredicts = 1
        l1 = traffic.l1_result
        l2 = traffic.l2_result
        l2_misses = l2.misses if l2 is not None else 0
        cycles = self.timing.cycles_for_block(
            event.n_insns, l1.misses, l2_misses, mispredicts, event.serialized
        )
        energy = self.energy
        # Fills count as writes into the cache (the refill writes the line).
        energy.l1d.add_accesses(
            l1.read_hits + l1.read_misses,
            l1.write_hits + l1.write_misses + l1.misses,
        )
        if l2 is not None:
            energy.l2.add_accesses(
                l2.read_hits + l2.read_misses,
                l2.write_hits + l2.write_misses + l2.misses,
            )
            energy.add_memory_accesses(l2_misses + len(l2.writeback_lines))
        energy.add_cycles(cycles)
        self.instructions += event.n_insns
        self.cycles += cycles
        return cycles

    def on_method_entry(self, method: str, code_footprint: int) -> float:
        """Account instruction-fetch effects of entering ``method``."""
        misses = self.hierarchy.instruction_fetch(method, code_footprint)
        if not misses:
            return 0.0
        params = self.timing.params
        cycles = misses * params.l2_hit_latency / params.mlp
        self.energy.l2.add_accesses(misses, 0)
        self.energy.add_cycles(cycles)
        self.cycles += cycles
        return cycles

    # -- reconfiguration ------------------------------------------------------

    def request_reconfiguration(
        self, cu_name: str, index: int, actor: str = "policy"
    ) -> bool:
        """Software reconfiguration request (the special instruction).

        Returns True iff the CU now holds ``index``.  Requests for the
        current setting succeed for free without consuming the guard;
        requests inside the CU's reconfiguration interval are silently
        denied (paper §3.4) and return False.  An installed
        :class:`~repro.faults.FaultPlan` with ``reconfig_deny`` > 0 can
        deny additional requests the guard would have granted — policies
        must already tolerate False here, so an injected denial simply
        delays the configuration change to a later invocation.
        """
        cu = self.cus[cu_name]
        if index == cu.current_index:
            return True
        telemetry = self.telemetry
        plan = self.fault_plan
        if plan is not None and plan.decide(
            "reconfig_deny", (cu_name, self.instructions)
        ):
            self.denied_reconfigurations[cu_name] += 1
            if telemetry.enabled:
                telemetry.emit(
                    RECONFIG_DENIED,
                    ts=self.instructions,
                    track=f"CU:{cu_name}",
                    actor=actor,
                    wanted=cu.describe_setting(index),
                    injected=True,
                )
                telemetry.metrics.counter(
                    f"machine.reconfigs_denied.{cu_name}"
                ).inc()
            return False
        if not self.guard.request(cu_name, self.instructions):
            self.denied_reconfigurations[cu_name] += 1
            if telemetry.enabled:
                telemetry.emit(
                    RECONFIG_DENIED,
                    ts=self.instructions,
                    track=f"CU:{cu_name}",
                    actor=actor,
                    wanted=cu.describe_setting(index),
                )
                telemetry.metrics.counter(
                    f"machine.reconfigs_denied.{cu_name}"
                ).inc()
            return False
        from_index = cu.current_index
        cost = cu.apply(index)
        self.registers.write(cu_name, index)
        self.applied_reconfigurations[cu_name] += 1
        if telemetry.enabled:
            is_cache = cu_name in (self.l1d_cu_name, self.l2_cu_name)
            telemetry.emit(
                CACHE_RESIZE if is_cache else RECONFIG_APPLIED,
                ts=self.instructions,
                track=f"CU:{cu_name}",
                actor=actor,
                setting_from=cu.describe_setting(from_index),
                setting_to=cu.describe_setting(index),
                dirty_lines=cost.dirty_lines,
            )
            telemetry.metrics.counter(
                f"machine.reconfigs_applied.{cu_name}"
            ).inc()
            telemetry.metrics.gauge(f"machine.setting.{cu_name}").set(index)
        self._charge_reconfiguration(cu_name, cost)
        if self.reconfiguration_log is not None:
            self.reconfiguration_log.append(
                ReconfigurationRecord(
                    self.instructions, cu_name, from_index, index, actor
                )
            )
        return True

    def _charge_reconfiguration(self, cu_name: str, cost) -> None:
        cycles = self.timing.flush_penalty(cost.dirty_lines) + cost.drain_cycles
        if cu_name == self.l1d_cu_name:
            model = self.energy.l1d
            model.add_reconfig_writebacks(cost.dirty_lines)
            model.set_size(self.hierarchy.l1d.size)
            if cost.writeback_lines:
                # Dirty L1D lines land in the L2.
                result = self.hierarchy.l2.access_many(
                    (), cost.writeback_lines
                )
                self.energy.l2.add_accesses(0, result.accesses + result.misses)
                self.energy.add_memory_accesses(
                    result.misses + len(result.writeback_lines)
                )
                self.hierarchy.memory_writes += len(result.writeback_lines)
        elif cu_name == self.l2_cu_name:
            model = self.energy.l2
            model.add_reconfig_writebacks(cost.dirty_lines)
            model.set_size(self.hierarchy.l2.size)
            if cost.writeback_lines:
                # Dirty L2 lines go to main memory.
                self.hierarchy.memory_writes += len(cost.writeback_lines)
                self.energy.add_memory_accesses(len(cost.writeback_lines))
        else:
            component = self.energy.pipeline.get(cu_name)
            if component is not None:
                cu = self.cus[cu_name]
                component.set_entries(int(cu.current_setting))
        if cycles:
            self.energy.add_cycles(cycles)
            self.cycles += cycles

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        return MachineSnapshot(self)

    def cu_setting(self, cu_name: str) -> object:
        return self.cus[cu_name].current_setting

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    def __repr__(self) -> str:
        settings = ", ".join(
            f"{name}={cu.describe_setting(cu.current_index)}"
            for name, cu in self.cus.items()
        )
        return (
            f"MachineModel(insns={self.instructions}, "
            f"cycles={self.cycles:.0f}, ipc={self.ipc:.3f}, {settings})"
        )
