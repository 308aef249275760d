"""Experiment runner: baseline vs. BBV vs. hotspot across the suite.

This is the layer the table/figure benches and the CLI drive.  Since the
engine redesign it is a thin facade over
:class:`repro.sim.engine.Engine`: every run is cached per
``(benchmark, scheme, ExperimentConfig.fingerprint())`` — in process
memory *and*, by default, in the persistent on-disk store
(``results/store/``), so fresh processes reuse previous runs.  The old
``cached_run``/``compare_schemes``/``run_suite`` signatures are kept as
shims routing through one ``Engine.run(cells)`` entry point.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.config import ExperimentConfig
from repro.sim.engine import (
    BatchExecutionError,
    Engine,
    ProgressCallback,
    clear_memory_cache,
)
from repro.sim.options import ExecutionOptions
from repro.sim.results import SCHEMES, RunResult, RunSpec
from repro.sim.store import ResultStore
from repro.workloads.names import BENCHMARK_NAMES

#: Persistent layer used by the module-level helpers.  ``None`` disables
#: persistence (memory-only), which is what ``--no-store`` sets.  The
#: initial store points at ``results/store`` (or ``$REPRO_STORE_DIR``).
_UNSET = object()
_DEFAULT_STORE = _UNSET


def get_default_store() -> Optional[ResultStore]:
    """The store new engines use; created lazily on first access."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is _UNSET:
        _DEFAULT_STORE = ResultStore()
    return _DEFAULT_STORE


def set_default_store(store: Optional[ResultStore]) -> None:
    """Replace (or, with ``None``, disable) the persistent layer."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def make_engine(
    use_cache: bool = True,
    progress: Optional[ProgressCallback] = None,
    failure_policy: str = "raise",
    fault_plan=None,
    options: Optional[ExecutionOptions] = None,
    telemetry=None,
    recorder=None,
) -> Engine:
    """An engine wired to the shared memory cache and a result store.

    ``options`` (an :class:`repro.sim.options.ExecutionOptions`, the
    CLI's execution flags) is how execution settings reach
    :class:`Engine`: ``jobs``, and the persistent layer — ``no_store``
    disables it, ``store_dir`` roots it elsewhere, and otherwise it is
    the module default store.  ``telemetry`` and ``recorder`` pass
    straight through to :class:`Engine` (the CLI's ``--trace`` /
    ``--record`` plumbing).
    """
    if options is None:
        options = ExecutionOptions()
    if options.no_store:
        store = None
    elif options.store_dir is not None:
        store = ResultStore(options.store_dir)
    else:
        store = get_default_store()
    return Engine(
        jobs=options.jobs,
        store=store,
        use_cache=use_cache,
        progress=progress,
        failure_policy=failure_policy,
        fault_plan=fault_plan,
        telemetry=telemetry,
        recorder=recorder,
    )


def cached_run(
    benchmark: str,
    scheme: str,
    config: ExperimentConfig,
    use_cache: bool = True,
) -> RunResult:
    """Run (or fetch from either cache layer) one benchmark+scheme.

    Shim over :meth:`Engine.run_one`; ``use_cache=False`` bypasses both
    the in-process cache and the persistent store, in both directions.
    """
    engine = make_engine(use_cache=use_cache)
    return engine.run_one(RunSpec(benchmark, scheme, config))


def clear_cache(include_store: bool = True) -> None:
    """Invalidate cached results.

    Clears the in-process memory cache and, unless ``include_store=False``,
    also wipes the persistent on-disk store — the two layers stay
    consistent by default (stale on-disk entries cannot resurrect results
    the caller just invalidated).
    """
    clear_memory_cache()
    if include_store:
        store = get_default_store()
        if store is not None:
            store.clear()


@dataclass
class BenchmarkComparison:
    """Baseline/BBV/hotspot results for one benchmark (Figures 3–4)."""

    benchmark: str
    baseline: RunResult
    bbv: RunResult
    hotspot: RunResult

    def _per_insn(self, result: RunResult, value: float) -> float:
        return value / result.instructions if result.instructions else 0.0

    def energy_reduction(self, scheme: str, cache: str) -> float:
        """Energy-per-instruction reduction of ``scheme`` vs. baseline."""
        result = getattr(self, scheme)
        if cache == "L1D":
            adaptive = self._per_insn(result, result.l1d_energy_nj)
            base = self._per_insn(self.baseline, self.baseline.l1d_energy_nj)
        elif cache == "L2":
            adaptive = self._per_insn(result, result.l2_energy_nj)
            base = self._per_insn(self.baseline, self.baseline.l2_energy_nj)
        else:
            raise ValueError(f"unknown cache {cache!r}")
        return 1.0 - adaptive / base if base > 0 else 0.0

    def slowdown(self, scheme: str) -> float:
        """Relative CPI increase of ``scheme`` vs. baseline (Figure 4)."""
        result = getattr(self, scheme)
        adaptive_cpi = (
            result.cycles / result.instructions if result.instructions else 0
        )
        base_cpi = (
            self.baseline.cycles / self.baseline.instructions
            if self.baseline.instructions
            else 0
        )
        return adaptive_cpi / base_cpi - 1.0 if base_cpi > 0 else 0.0


@dataclass
class SuiteResults:
    """All comparisons, keyed by benchmark, plus suite averages."""

    comparisons: Dict[str, BenchmarkComparison] = field(default_factory=dict)

    def benchmarks(self) -> List[str]:
        return list(self.comparisons)

    def average_energy_reduction(self, scheme: str, cache: str) -> float:
        values = [
            c.energy_reduction(scheme, cache)
            for c in self.comparisons.values()
        ]
        return sum(values) / len(values) if values else 0.0

    def average_slowdown(self, scheme: str) -> float:
        values = [c.slowdown(scheme) for c in self.comparisons.values()]
        return sum(values) / len(values) if values else 0.0


def compare_schemes(
    benchmark: str,
    config: Optional[ExperimentConfig] = None,
    use_cache: bool = True,
    engine: Optional[Engine] = None,
) -> BenchmarkComparison:
    """Run all three schemes on one benchmark (one engine batch)."""
    config = config or ExperimentConfig()
    engine = engine or make_engine(use_cache=use_cache)
    cells = [RunSpec(benchmark, scheme, config) for scheme in SCHEMES]
    batch = engine.run(cells)
    if batch.degraded:
        # The comparison needs all three schemes; under "skip"/"partial"
        # a missing cell makes it meaningless, so refuse cleanly rather
        # than hand the caller None results.
        failed = ", ".join(
            f"{o.spec.scheme} ({o.status})" for o in batch.failures
        )
        raise BatchExecutionError(
            batch,
            f"cannot compare schemes for {benchmark!r}; "
            f"failed cell(s): {failed}",
        )
    baseline, bbv, hotspot = batch.values()
    return BenchmarkComparison(
        benchmark=benchmark,
        baseline=baseline,
        bbv=bbv,
        hotspot=hotspot,
    )


def run_suite(
    names: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
    use_cache: bool = True,
    jobs: int = 1,
    engine: Optional[Engine] = None,
    progress: Optional[ProgressCallback] = None,
) -> SuiteResults:
    """Run the three-scheme comparison over the whole suite (or subset).

    The full ``benchmarks × schemes`` grid is handed to the engine as one
    batch, so with ``jobs > 1`` the cells that actually need simulating
    fan out across worker processes; cached cells (memory or store) never
    re-simulate.  Output is identical for any ``jobs`` value.

    When the engine runs with a non-``"raise"`` failure policy, a
    benchmark whose three scheme cells did not *all* succeed is dropped
    from the suite (with a stderr note) rather than aborting the whole
    comparison — the degraded-batch contract of docs/INTERNALS.md §11.
    """
    config = config or ExperimentConfig()
    engine = engine or make_engine(
        use_cache=use_cache,
        progress=progress,
        options=ExecutionOptions(jobs=jobs),
    )
    names = list(names or BENCHMARK_NAMES)
    cells = [
        RunSpec(name, scheme, config)
        for name in names
        for scheme in SCHEMES
    ]
    batch = engine.run(cells)
    runs = batch.values()
    results = SuiteResults()
    for position, name in enumerate(names):
        baseline, bbv, hotspot = runs[3 * position:3 * position + 3]
        if baseline is None or bbv is None or hotspot is None:
            print(
                f"warning: dropping benchmark {name!r} from the suite "
                "(one or more scheme cells failed)",
                file=sys.stderr,
            )
            continue
        results.comparisons[name] = BenchmarkComparison(
            benchmark=name,
            baseline=baseline,
            bbv=bbv,
            hotspot=hotspot,
        )
    if names and not results.comparisons:
        # An exhibit over zero benchmarks would render all-zero averages
        # and look like a (meaningless) clean result.
        raise BatchExecutionError(
            batch,
            "no benchmark survived the suite: every requested benchmark "
            "had at least one failed scheme cell",
        )
    return results
