"""Simulation configuration (paper Table 2) and interval scaling.

The paper's interval-like constants — reconfiguration intervals, the BBV
sampling interval, hotspot size bands — are all quoted against ~10^10
-instruction runs.  The reproduction runs a few million synthetic
instructions, so every interval-like constant is multiplied by a common
``scale`` (default 1/100), which preserves every ratio the results depend
on (DESIGN.md §2).  Cache geometries are kept at the paper's values.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

# TuningConfig and BBVConfig live with the code they parameterise (they are
# re-exported here so configuration stays one-stop for users).  Like the
# energy constants and timing parameters below, they come from leaf
# modules; the machine model itself is imported by build_machine only.
from repro.core.tuning import TuningConfig
from repro.phases.bbv import BBVConfig
from repro.energy.params import (
    CacheEnergySpec,
    DEFAULT_L1D_ENERGY,
    DEFAULT_L2_ENERGY,
    MEMORY_ACCESS_NJ,
)
from repro.hashing import sha256
from repro.sim.options import check_at_least
from repro.uarch.timing import TimingModel, TimingParams

if TYPE_CHECKING:
    from repro.uarch.machine import MachineModel

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class CacheConfig:
    """Geometry + legal sizes of one configurable cache (Table 2)."""

    name: str
    sizes: Tuple[int, ...]
    line_size: int
    associativity: int
    reconfiguration_interval: int  # unscaled instructions

    @property
    def max_size(self) -> int:
        return max(self.sizes)


from repro.scaling import DEFAULT_INTERVAL_SCALE, STRUCTURE_SCALE

#: Paper Table 2: L1D 64/32/16/8 KB, 2-way, 64 B lines, 100 K-insn
#: interval (capacities divided by STRUCTURE_SCALE).
L1D_CONFIG = CacheConfig(
    name="L1D",
    sizes=(
        64 * KB // STRUCTURE_SCALE,
        32 * KB // STRUCTURE_SCALE,
        16 * KB // STRUCTURE_SCALE,
        8 * KB // STRUCTURE_SCALE,
    ),
    line_size=64,
    associativity=2,
    reconfiguration_interval=100_000,
)

#: Paper Table 2: L2 1 M/512 K/256 K/128 K, 4-way, 128 B lines, 1 M
#: interval (capacities divided by STRUCTURE_SCALE).
L2_CONFIG = CacheConfig(
    name="L2",
    sizes=(
        1 * MB // STRUCTURE_SCALE,
        512 * KB // STRUCTURE_SCALE,
        256 * KB // STRUCTURE_SCALE,
        128 * KB // STRUCTURE_SCALE,
    ),
    line_size=128,
    associativity=4,
    reconfiguration_interval=1_000_000,
)


@dataclass(frozen=True)
class ScaledParameters:
    """All interval-like constants after applying the common scale.

    The hotspot size bands follow the paper's §3.2.1 rule: L1D hotspots are
    50 K–500 K instructions (0.5×–5× the L1D interval), L2 hotspots are
    anything larger.
    """

    scale: float = DEFAULT_INTERVAL_SCALE

    def scaled(self, unscaled: int) -> int:
        return max(1, int(round(unscaled * self.scale)))

    @property
    def l1d_reconfig_interval(self) -> int:
        return self.scaled(L1D_CONFIG.reconfiguration_interval)

    @property
    def l2_reconfig_interval(self) -> int:
        return self.scaled(L2_CONFIG.reconfiguration_interval)

    @property
    def bbv_sampling_interval(self) -> int:
        # Paper §5.2: BBV sampling interval = the L2 reconfiguration interval.
        return self.l2_reconfig_interval

    @property
    def l1d_hotspot_min(self) -> int:
        return self.scaled(50_000)

    @property
    def l1d_hotspot_max(self) -> int:
        return self.scaled(500_000)

    @property
    def l2_hotspot_min(self) -> int:
        return self.l1d_hotspot_max


@dataclass
class MachineConfig:
    """Complete simulated-machine description."""

    l1d: CacheConfig = field(default_factory=lambda: L1D_CONFIG)
    l2: CacheConfig = field(default_factory=lambda: L2_CONFIG)
    l1i_size: int = 64 * KB // STRUCTURE_SCALE
    l1i_line: int = 64
    timing: TimingParams = field(default_factory=TimingParams)
    l1d_energy: CacheEnergySpec = DEFAULT_L1D_ENERGY
    l2_energy: CacheEnergySpec = DEFAULT_L2_ENERGY
    memory_access_nj: float = MEMORY_ACCESS_NJ
    params: ScaledParameters = field(default_factory=ScaledParameters)
    #: Extension CUs (issue queue / reorder buffer); off for the paper's
    #: headline experiments.
    enable_pipeline_cus: bool = False
    iq_reconfig_interval_unscaled: int = 10_000
    rob_reconfig_interval_unscaled: int = 10_000
    record_reconfigurations: bool = False
    #: Cache resize semantics: "selective" (selective-sets hardware, the
    #: default) or "flush" (invalidate everything on resize — the
    #: conservative cost model; see the resize-policy ablation bench).
    resize_policy: str = "selective"


#: Version prefix baked into every fingerprint.  Bump when the meaning of
#: a configuration field changes (so old persistent-store entries stop
#: matching) — see docs/INTERNALS.md §9.
#: v2: deterministic (CRC32) instruction-fetch addressing replaced the
#: PYTHONHASHSEED-salted ``hash()`` base, changing every simulation's L2
#: instruction traffic; ``sim_kernel`` was also added to the config.
#: v3 was used only by a retired vectorized kernel (docs/INTERNALS.md §17).
FINGERPRINT_VERSION = 2

#: Legal values of :attr:`ExperimentConfig.sim_kernel`.
SIM_KERNELS = ("fast", "reference")


def canonicalize(obj):
    """Reduce a configuration object to JSON-serialisable primitives.

    Dataclasses become ``{field: value}`` dicts (every field, so new knobs
    are automatically part of the fingerprint), mappings are key-sorted,
    and sequences become lists.  Anything exotic falls back to ``repr``,
    which is stable for the value types configurations hold.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {
            str(key): canonicalize(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


@dataclass
class ExperimentConfig:
    """One experiment = machine + budgets + scheme knobs."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    tuning: TuningConfig = field(default_factory=TuningConfig)
    bbv: BBVConfig = field(default_factory=BBVConfig)
    max_instructions: int = 6_000_000
    hot_threshold: int = 4
    seed: int = 12345
    #: Which interpreter executes the run: "fast" (the batched, inlined
    #: kernel of :mod:`repro.vm.fastvm`) or "reference" (the readable
    #: :class:`repro.vm.vm.VirtualMachine` loop).  The two are proven
    #: bit-identical by tests/test_kernel_equivalence.py.  The field is
    #: part of the fingerprint so results from different kernels never
    #: collide in the persistent store.
    sim_kernel: str = "fast"

    def __post_init__(self) -> None:
        if self.sim_kernel == "turbo":
            raise ValueError(
                "sim_kernel='turbo' was retired; see the retirement note "
                "in docs/INTERNALS.md §17 and use sim_kernel='fast'"
            )
        if self.sim_kernel not in SIM_KERNELS:
            raise ValueError(
                f"sim_kernel must be one of {SIM_KERNELS}, "
                f"got {self.sim_kernel!r}"
            )
        self.check_budgets()

    def check_budgets(self) -> None:
        """Raise ``ValueError`` naming the field when a budget is below 1.

        Construction checks them; :meth:`repro.sim.engine.Engine.run`
        checks again before a batch starts, since the fields can be
        assigned later.
        """
        check_at_least("max_instructions", self.max_instructions, 1)
        check_at_least("hot_threshold", self.hot_threshold, 1)

    def check_kernel(self) -> None:
        """Raise ``ValueError`` when the kernel cannot run this machine.

        The fast kernel's runners update a 2-way L1D's rank arrays
        (:class:`~repro.uarch.cache.TwoWayCache`), so it refuses any
        other associativity; the reference kernel runs them all.
        :meth:`repro.sim.engine.Engine.run` checks before a batch
        starts, so such a batch fails once, before any cell runs.
        """
        associativity = self.machine.l1d.associativity
        if self.sim_kernel == "fast" and associativity != 2:
            raise ValueError(
                "the fast kernel needs a 2-way L1D; this configuration's "
                f"L1D has associativity {associativity} (use "
                "sim_kernel='reference')"
            )

    def fingerprint(self) -> str:
        """Content hash over *every* nested knob (versioned, hex).

        This is the cache identity used by both the in-process result
        cache and the persistent on-disk store: two configurations with
        equal fingerprints produce identical simulations.  Unlike the old
        private tuple fingerprint, it is derived structurally from the
        dataclass fields, so adding or changing any knob — cache geometry,
        timing constants, energy specs, tuning thresholds — changes the
        hash without anyone having to remember to extend a hand-written
        field list.
        """
        payload = {
            "version": FINGERPRINT_VERSION,
            "config": canonicalize(self),
        }
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return sha256(blob.encode("utf-8")).hexdigest()


def build_machine(config: Optional[MachineConfig] = None) -> MachineModel:
    """Construct a fresh machine model from a configuration."""
    from repro.energy.model import (
        CacheEnergyModel,
        EnergyModel,
        PipelineEnergyModel,
    )
    from repro.uarch.branch import BimodalPredictor
    from repro.uarch.cache import Cache, TwoWayCache
    from repro.uarch.cu import (
        CacheSizeCU,
        ConfigurableUnit,
        IssueQueueCU,
        ReorderBufferCU,
    )
    from repro.uarch.hierarchy import CacheHierarchy, InstructionCacheModel
    from repro.uarch.machine import MachineModel

    config = config or MachineConfig()
    params = config.params
    # A 2-way L1D (every shipped configuration, paper Table 2) is kept as
    # rank arrays, which the fast kernel's runners update; the L2 keeps
    # dict sets at any associativity, which its miss path inlines.
    l1d_class = TwoWayCache if config.l1d.associativity == 2 else Cache
    l1d_cache = l1d_class(
        config.l1d.name,
        config.l1d.max_size,
        config.l1d.line_size,
        config.l1d.associativity,
        sizes=config.l1d.sizes,
        resize_policy=config.resize_policy,
    )
    l2_cache = Cache(
        config.l2.name,
        config.l2.max_size,
        config.l2.line_size,
        config.l2.associativity,
        sizes=config.l2.sizes,
        resize_policy=config.resize_policy,
    )
    hierarchy = CacheHierarchy(
        l1d_cache,
        l2_cache,
        InstructionCacheModel(config.l1i_size, config.l1i_line),
    )
    # Reconfiguration intervals are scaled down by `params.scale`, so the
    # per-line flush *stall* is scaled identically — otherwise the
    # overhead-to-interval ratio (the quantity the paper's results depend
    # on) would be inflated by 1/scale.  The writeback *traffic* and its
    # energy remain unscaled: they are per-event costs, not rates.
    timing_params = replace(
        config.timing,
        flush_cycles_per_line=(
            config.timing.flush_cycles_per_line * params.scale
        ),
    )
    timing = TimingModel(timing_params)
    energy = EnergyModel(
        l1d=CacheEnergyModel(
            config.l1d.name,
            config.l1d_energy,
            config.l1d.sizes,
            config.l1d.max_size,
        ),
        l2=CacheEnergyModel(
            config.l2.name,
            config.l2_energy,
            config.l2.sizes,
            config.l2.max_size,
        ),
        memory_access_nj=config.memory_access_nj,
    )
    cus: Dict[str, ConfigurableUnit] = {
        config.l1d.name: CacheSizeCU(
            l1d_cache, params.scaled(config.l1d.reconfiguration_interval)
        ),
        config.l2.name: CacheSizeCU(
            l2_cache, params.scaled(config.l2.reconfiguration_interval)
        ),
    }
    if config.enable_pipeline_cus:
        iq = IssueQueueCU(
            timing, params.scaled(config.iq_reconfig_interval_unscaled)
        )
        rob = ReorderBufferCU(
            timing, params.scaled(config.rob_reconfig_interval_unscaled)
        )
        cus[iq.name] = iq
        cus[rob.name] = rob
        energy.pipeline[iq.name] = PipelineEnergyModel(
            iq.name, TimingModel.FULL_ISSUE_QUEUE, nj_per_cycle_full=0.30
        )
        energy.pipeline[rob.name] = PipelineEnergyModel(
            rob.name, TimingModel.FULL_ROB, nj_per_cycle_full=0.35
        )
    return MachineModel(
        hierarchy,
        BimodalPredictor(entries=2048),
        timing,
        energy,
        cus,
        record_reconfigurations=config.record_reconfigurations,
    )
