"""Single-run driver: one benchmark, one adaptation scheme.

Wires together workload, machine, VM, and policy, runs to the instruction
budget, and packages everything the evaluation needs into a
:class:`RunResult`.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.core.policy import HotspotACEPolicy, HotspotPolicyStats
from repro.core.prediction import install_program_for_prediction
from repro.phases.policy import BBVACEPolicy, BBVPolicyStats
from repro.sim.config import SIM_KERNELS, ExperimentConfig, build_machine
from repro.vm.fastvm import FastVirtualMachine
from repro.vm.vm import AdaptationHooks, VMConfig, VirtualMachine
from repro.workloads.specjvm import BuiltBenchmark, build_benchmark

SCHEMES = ("baseline", "bbv", "hotspot")


@dataclass
class RunSpec:
    """One experiment cell: everything needed to execute a single run.

    This replaces the ``run_benchmark(benchmark, scheme, config, policy,
    max_instructions, preload_database)`` parameter sprawl — a cell is one
    value that the driver, the engine, and the sweeps all accept.
    ``policy`` and ``preload_database`` make a cell *non-cacheable* (their
    state is not captured by the configuration fingerprint).
    """

    benchmark: Union[str, BuiltBenchmark]
    scheme: str = "hotspot"
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    policy: Optional[AdaptationHooks] = None
    max_instructions: Optional[int] = None
    preload_database: Optional[object] = None

    @property
    def benchmark_name(self) -> str:
        if isinstance(self.benchmark, str):
            return self.benchmark
        return self.benchmark.name

    @property
    def cacheable(self) -> bool:
        """True when the cell is fully described by (name, scheme, config).

        A prebuilt ``BuiltBenchmark`` object, an explicit ``policy``, or a
        ``preload_database`` all carry state outside the fingerprint, so
        such cells always execute.
        """
        return (
            isinstance(self.benchmark, str)
            and self.policy is None
            and self.preload_database is None
        )

    def effective_fingerprint(self) -> str:
        """Configuration fingerprint with ``max_instructions`` folded in."""
        if self.max_instructions is None:
            return self.config.fingerprint()
        config = copy.deepcopy(self.config)
        config.max_instructions = self.max_instructions
        return config.fingerprint()

    def cache_key(self) -> Tuple[str, str, str]:
        """Identity of this cell in both cache layers."""
        return (
            self.benchmark_name,
            self.scheme,
            self.effective_fingerprint(),
        )


@dataclass
class HotspotSummary:
    """Per-hotspot data extracted from the DO database (Table 4)."""

    name: str
    invocations: int
    mean_size: float
    detected_at: Optional[int]
    pre_hot_instructions: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HotspotSummary":
        return cls(**payload)


@dataclass
class RunResult:
    """Everything measured in one run."""

    benchmark: str
    scheme: str
    instructions: int
    cycles: float
    ipc: float
    l1d_energy_nj: float
    l2_energy_nj: float
    l1d_breakdown: Dict[str, float]
    l2_breakdown: Dict[str, float]
    memory_nj: float
    l1d_miss_rate: float
    l2_miss_rate: float
    branch_mispredict_rate: float
    n_hotspots: int
    instructions_in_hotspots: int
    hotspot_summaries: Dict[str, HotspotSummary] = field(default_factory=dict)
    hotspot_stats: Optional[HotspotPolicyStats] = None
    bbv_stats: Optional[BBVPolicyStats] = None
    applied_reconfigurations: Dict[str, int] = field(default_factory=dict)
    denied_reconfigurations: Dict[str, int] = field(default_factory=dict)
    gc_invocations: int = 0

    @property
    def hotspot_coverage(self) -> float:
        """Fraction of dynamic instructions inside detected hotspots."""
        if self.instructions == 0:
            return 0.0
        return self.instructions_in_hotspots / self.instructions

    @property
    def identification_latency(self) -> float:
        """Fraction of execution spent in not-yet-hot invocations of
        methods that eventually became hotspots (Table 4's last row)."""
        if self.instructions == 0:
            return 0.0
        pre = sum(
            h.pre_hot_instructions for h in self.hotspot_summaries.values()
        )
        return min(1.0, pre / self.instructions)

    @property
    def avg_hotspot_size(self) -> float:
        sizes = [h.mean_size for h in self.hotspot_summaries.values()]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def avg_invocations_per_hotspot(self) -> float:
        invs = [h.invocations for h in self.hotspot_summaries.values()]
        return sum(invs) / len(invs) if invs else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (store schema v1); nested dataclasses recurse."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunResult":
        """Inverse of :meth:`to_dict`; raises on unknown/missing fields."""
        payload = dict(payload)
        payload["hotspot_summaries"] = {
            name: HotspotSummary.from_dict(summary)
            for name, summary in payload["hotspot_summaries"].items()
        }
        if payload.get("hotspot_stats") is not None:
            payload["hotspot_stats"] = HotspotPolicyStats.from_dict(
                payload["hotspot_stats"]
            )
        if payload.get("bbv_stats") is not None:
            payload["bbv_stats"] = BBVPolicyStats.from_dict(
                payload["bbv_stats"]
            )
        return cls(**payload)


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


def run_benchmark(
    benchmark: Union[str, BuiltBenchmark, RunSpec],
    scheme: str = "hotspot",
    config: Optional[ExperimentConfig] = None,
    policy: Optional[AdaptationHooks] = None,
    max_instructions: Optional[int] = None,
    preload_database=None,
) -> RunResult:
    """Run one benchmark under one scheme; returns the result bundle.

    .. deprecated::
        The keyword form is a compatibility shim; describe cells with a
        :class:`RunSpec` and call :func:`execute` (or route batches
        through :class:`repro.sim.engine.Engine`) instead.

    ``policy`` overrides the scheme's default policy object (used by the
    ablation benches to pass customised policies while keeping the same
    plumbing).
    """
    if isinstance(benchmark, RunSpec):
        return execute(benchmark)
    return execute(
        RunSpec(
            benchmark=benchmark,
            scheme=scheme,
            config=config or ExperimentConfig(),
            policy=policy,
            max_instructions=max_instructions,
            preload_database=preload_database,
        )
    )


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
    """
    config = spec.config or ExperimentConfig()
    scheme = spec.scheme
    policy = spec.policy
    benchmark = spec.benchmark
    max_instructions = spec.max_instructions
    preload_database = spec.preload_database
    built = (
        build_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    )
    machine = build_machine(config.machine)
    if policy is None:
        policy = make_policy(scheme, config)
    if fault_plan is not None:
        machine.fault_plan = fault_plan
        if hasattr(policy, "fault_plan"):
            policy.fault_plan = fault_plan
    if isinstance(policy, HotspotACEPolicy) and policy.predictor is not None:
        install_program_for_prediction(machine, built.program)
    vm_config = VMConfig(
        hot_threshold=config.hot_threshold,
        seed=config.seed,
        gc_method="gc_sweep" if built.spec.gc else "",
        gc_period_instructions=built.spec.gc_period if built.spec.gc else 0,
    )
    vm_class = make_vm_class(getattr(config, "sim_kernel", "fast"))
    vm = vm_class(
        built.program,
        machine,
        policy=policy,
        config=vm_config,
        thread_entries=built.thread_entries,
        preload_database=preload_database,
        telemetry=telemetry,
    )
    vm.run(max_instructions or config.max_instructions)

    if telemetry is not None:
        # Mirror the process-wide blockjit code-cache counters (compiles,
        # hits, evictions, size) into the session's metrics registry so a
        # traced run shows whether it ran warm or had to re-fuse.
        from repro.vm.blockjit import publish_metrics

        publish_metrics(telemetry.metrics)

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
