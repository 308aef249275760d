"""Experiment cells and their results: the data every layer exchanges.

A :class:`RunSpec` names one cell; a :class:`RunResult` (with its
nested :class:`HotspotSummary`, :class:`HotspotPolicyStats` and
:class:`BBVPolicyStats`) is what executing it measured.  The engine,
the result store, the exhibits and the CLI pass these values around
without simulating anything, so this module imports no part of the
simulator: a command served from the store never loads the VM, the
policies or the machine model (docs/INTERNALS.md, "Import layering").
:mod:`repro.sim.driver` executes cells and re-exports every name here.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.phases.classifier import PhaseOccurrenceStats
from repro.sim.config import ExperimentConfig

if TYPE_CHECKING:
    from repro.vm.vm import AdaptationHooks
    from repro.workloads.specjvm import BuiltBenchmark

SCHEMES = ("baseline", "bbv", "hotspot")


@dataclass
class RunSpec:
    """One experiment cell: everything needed to execute a single run.

    A cell is one value that the driver (:func:`repro.sim.driver.execute`),
    the engine, and the sweeps all accept.
    ``policy`` and ``preload_database`` make a cell *non-cacheable* (their
    state is not captured by the configuration fingerprint).
    """

    benchmark: Union[str, "BuiltBenchmark"]
    scheme: str = "hotspot"
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    policy: Optional["AdaptationHooks"] = None
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
class HotspotPolicyStats:
    """Final statistics of one hotspot-policy run (Tables 4–6 inputs)."""

    hotspots_by_kind: Dict[str, int] = field(default_factory=dict)
    managed_hotspots: int = 0
    tuned_hotspots: int = 0
    unmanaged_hotspots: int = 0
    tunings: Dict[str, int] = field(default_factory=dict)
    reconfigs: Dict[str, int] = field(default_factory=dict)
    denied: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, float] = field(default_factory=dict)
    per_hotspot_ipc_cov: float = 0.0
    inter_hotspot_ipc_cov: float = 0.0
    retunes: int = 0
    early_aborts: int = 0
    kind_of: Dict[str, str] = field(default_factory=dict)
    hotspot_mean_ipc: Dict[str, float] = field(default_factory=dict)

    @property
    def total_managed_hotspot_count(self) -> int:
        return self.managed_hotspots

    @property
    def tuned_fraction(self) -> float:
        if self.managed_hotspots == 0:
            return 0.0
        return self.tuned_hotspots / self.managed_hotspots

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (result-store schema v1)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HotspotPolicyStats":
        return cls(**payload)


@dataclass
class BBVPolicyStats:
    """Final statistics of one BBV-policy run (Tables 5–6, Figure 1)."""

    n_phases: int = 0
    tuned_phases: int = 0
    intervals_total: int = 0
    intervals_in_tuned_phases: int = 0
    per_phase_ipc_cov: float = 0.0
    inter_phase_ipc_cov: float = 0.0
    tunings: Dict[str, int] = field(default_factory=dict)
    reconfigs: Dict[str, int] = field(default_factory=dict)
    safety_reconfigs: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, float] = field(default_factory=dict)
    occurrence_stats: PhaseOccurrenceStats = field(
        default_factory=PhaseOccurrenceStats
    )
    discarded_trials: int = 0
    #: Next-phase-predictor extension (None when running paper-faithful).
    predicted_applications: int = 0
    prediction_accuracy: Optional[float] = None

    @property
    def tuned_interval_fraction(self) -> float:
        if self.intervals_total == 0:
            return 0.0
        return self.intervals_in_tuned_phases / self.intervals_total

    @property
    def tuned_phase_fraction(self) -> float:
        return self.tuned_phases / self.n_phases if self.n_phases else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (result-store schema v1)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BBVPolicyStats":
        payload = dict(payload)
        payload["occurrence_stats"] = PhaseOccurrenceStats.from_dict(
            payload["occurrence_stats"]
        )
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
