"""Single-run driver: one benchmark, one adaptation scheme.

Wires together workload, machine, VM, and policy, runs to the instruction
budget, and packages everything the evaluation needs into a
:class:`RunResult`; :func:`execute_group` runs cells that differ only
in scheme as lanes of one fast-kernel VM.  The cell and result types
live in the light :mod:`repro.sim.results`; this module re-exports
them, and importing it loads the whole simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.policy import HotspotACEPolicy
from repro.core.prediction import install_program_for_prediction
from repro.phases.policy import BBVACEPolicy
from repro.sim.config import SIM_KERNELS, ExperimentConfig, build_machine
from repro.sim.results import (  # noqa: F401 — re-exported data layer
    SCHEMES,
    BBVPolicyStats,
    HotspotPolicyStats,
    HotspotSummary,
    RunResult,
    RunSpec,
)
from repro.vm.fastvm import FastVirtualMachine
from repro.vm.vm import AdaptationHooks, VMConfig, VirtualMachine
from repro.workloads.specjvm import build_benchmark


def make_policy(scheme: str, config: ExperimentConfig) -> AdaptationHooks:
    """Instantiate the adaptation policy for a scheme name."""
    if scheme == "baseline":
        return AdaptationHooks()
    if scheme == "bbv":
        return BBVACEPolicy(bbv=config.bbv, tuning=config.tuning)
    if scheme == "hotspot":
        return HotspotACEPolicy(tuning=config.tuning)
    raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")


#: ``sim_kernel`` name -> interpreter class.  Both kernels are
#: bit-identical; keys match :data:`repro.sim.config.SIM_KERNELS`.
KERNEL_REGISTRY: Dict[str, type] = {
    "reference": VirtualMachine,
    "fast": FastVirtualMachine,
}


def make_vm_class(kernel: str):
    """Resolve a ``sim_kernel`` name to the interpreter class."""
    vm_class = KERNEL_REGISTRY.get(kernel)
    if vm_class is None:
        raise ValueError(
            f"unknown sim_kernel {kernel!r}; known: {SIM_KERNELS}"
        )
    return vm_class


def execute(spec: RunSpec, telemetry=None, fault_plan=None) -> RunResult:
    """Execute one :class:`RunSpec` cell (always simulates; no caching).

    ``telemetry`` is an optional :class:`repro.obs.Telemetry` session;
    when given, the VM, the machine model, and the adaptation policy all
    emit their decision timeline into it.  The result bundle itself is
    unchanged — telemetry stays on the side channel, never in
    :class:`RunResult` (cached results must not depend on whether a run
    was traced).

    ``fault_plan`` is an optional :class:`repro.faults.FaultPlan`; when
    given, the machine model consults it for injected reconfiguration
    denials and both policies for profiling noise/drift.  The engine
    refuses to cache results produced under a simulation-perturbing plan
    (see ``Engine._cell_cacheable``).

    A cell is the one-lane case of :func:`execute_group`.
    """
    return execute_group([spec], [telemetry], fault_plan)[0]


def execute_group(
    specs: Sequence[RunSpec],
    telemetries: Optional[Sequence] = None,
    fault_plan=None,
) -> List[RunResult]:
    """Execute cells that differ only in scheme as lanes of one VM.

    The cells must share the benchmark, the configuration and the
    budget; with more than one they must name distinct schemes, carry
    no ``policy`` or ``preload_database`` and run on the fast kernel.
    They then run in lockstep (docs/INTERNALS.md §12): one program
    stream drives one machine and policy per cell, and each result is
    bit-identical to executing its cell alone.  ``telemetries`` gives
    each cell its own session (or ``None``); ``fault_plan`` is shared,
    as :func:`execute` takes it.  Returns the results in cell order.
    """
    first = specs[0]
    config = first.config or ExperimentConfig()
    budget = first.max_instructions or config.max_instructions
    if telemetries is None:
        telemetries = [None] * len(specs)
    if len(specs) > 1:
        _check_group(specs, config, budget)
    benchmark = first.benchmark
    built = (
        build_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    )
    lanes = []
    for spec, telemetry in zip(specs, telemetries):
        machine = build_machine(config.machine)
        policy = spec.policy
        if policy is None:
            policy = make_policy(spec.scheme, config)
        if fault_plan is not None:
            machine.fault_plan = fault_plan
            if hasattr(policy, "fault_plan"):
                policy.fault_plan = fault_plan
        if (
            isinstance(policy, HotspotACEPolicy)
            and policy.predictor is not None
        ):
            install_program_for_prediction(machine, built.program)
        lanes.append((machine, policy, telemetry))
    vm_config = VMConfig(
        hot_threshold=config.hot_threshold,
        seed=config.seed,
        gc_method="gc_sweep" if built.spec.gc else "",
        gc_period_instructions=built.spec.gc_period if built.spec.gc else 0,
    )
    vm_class = make_vm_class(getattr(config, "sim_kernel", "fast"))
    machine, policy, telemetry = lanes[0]
    vm = vm_class(
        built.program,
        machine,
        policy=policy,
        config=vm_config,
        thread_entries=built.thread_entries,
        preload_database=first.preload_database,
        telemetry=telemetry,
        **({"lanes": lanes[1:]} if len(lanes) > 1 else {}),
    )
    vm.run(budget)

    results = []
    for machine, policy, telemetry in lanes:
        if telemetry is not None:
            # Mirror the process-wide blockjit code-cache counters
            # (compiles, disk loads and writes, hits, evictions, size)
            # into the session's metrics registry so a traced run shows
            # whether it ran warm or had to re-fuse.
            from repro.vm.blockjit import publish_metrics

            publish_metrics(telemetry.metrics)
        results.append(_result(built, machine, policy, vm))
    return results


def _check_group(specs: Sequence[RunSpec], config, budget) -> None:
    """Refuse cells that cannot share one program stream."""
    first = specs[0]
    schemes = [spec.scheme for spec in specs]
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"lockstep cells need distinct schemes: {schemes}")
    for spec in specs:
        if (
            spec.benchmark_name != first.benchmark_name
            or (spec.config or ExperimentConfig()) != config
            or (spec.max_instructions or config.max_instructions) != budget
        ):
            raise ValueError(
                "lockstep cells must share benchmark, config and budget"
            )
        if spec.policy is not None or spec.preload_database is not None:
            raise ValueError(
                "lockstep cells take their policies from their schemes "
                "and carry no preload_database"
            )
    if getattr(config, "sim_kernel", "fast") != "fast":
        raise ValueError("lockstep cells run on the fast kernel")


def _result(built, machine, policy, vm) -> RunResult:
    """One lane's :class:`RunResult`."""
    hotspot_stats = (
        policy.finalize() if isinstance(policy, HotspotACEPolicy) else None
    )
    bbv_stats = (
        policy.finalize() if isinstance(policy, BBVACEPolicy) else None
    )
    summaries = {
        name: HotspotSummary(
            name=name,
            invocations=info.profile.invocations,
            mean_size=info.mean_size,
            detected_at=info.profile.detected_at,
            pre_hot_instructions=info.profile.pre_hot_instructions,
        )
        for name, info in vm.database.hotspots.items()
    }
    l1 = machine.hierarchy.l1d.stats
    l2 = machine.hierarchy.l2.stats
    return RunResult(
        benchmark=built.name,
        scheme=policy.name,
        instructions=machine.instructions,
        cycles=machine.cycles,
        ipc=machine.ipc,
        l1d_energy_nj=machine.energy.l1d.total_nj,
        l2_energy_nj=machine.energy.l2.total_nj,
        l1d_breakdown=machine.energy.l1d.breakdown(),
        l2_breakdown=machine.energy.l2.breakdown(),
        memory_nj=machine.energy.memory_nj,
        l1d_miss_rate=l1.miss_rate,
        l2_miss_rate=l2.miss_rate,
        branch_mispredict_rate=machine.predictor.misprediction_rate,
        n_hotspots=len(vm.database.hotspots),
        instructions_in_hotspots=vm.stats.instructions_in_hotspots,
        hotspot_summaries=summaries,
        hotspot_stats=hotspot_stats,
        bbv_stats=bbv_stats,
        applied_reconfigurations=dict(machine.applied_reconfigurations),
        denied_reconfigurations=dict(machine.denied_reconfigurations),
        gc_invocations=vm.stats.gc_invocations,
    )
