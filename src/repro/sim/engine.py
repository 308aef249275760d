"""Parallel experiment engine: fan experiment cells out across a
pluggable execution backend.

Every exhibit, bench, and CLI command ultimately needs the same thing: a
batch of ``(benchmark, scheme, config)`` cells turned into
:class:`~repro.sim.driver.RunResult` bundles.  :class:`Engine` is the one
entry point for that.  It layers three mechanisms under a single
``run(cells)`` call:

1. an **in-process memory cache** (shared, module-level) so different
   exhibits in one process reuse the same runs — the role the old private
   ``_CACHE`` dict in ``repro.sim.experiment`` used to play;
2. a **persistent on-disk store** (:class:`repro.sim.store.ResultStore`)
   so *fresh processes* — another CLI invocation, another pytest worker,
   another *host* — reuse runs too;
3. an execution **backend** (:class:`repro.sim.pools.Pool`) with
   per-cell timeout and bounded retry for the cells that actually have
   to simulate.

Results are deterministic: a cell's outcome depends only on its
:class:`~repro.sim.driver.RunSpec`, never on scheduling or location, so
every backend is bit-identical to serial (tests/test_backends.py).

Backends (docs/INTERNALS.md §14): ``Engine(pool=...)`` accepts a
backend spec string (``"serial"``, ``"local:4"``, ``"ssh:hostfile"``) or
a constructed :class:`~repro.sim.pools.Pool`; the legacy ``jobs=N``
parameter still resolves to ``local:N``.  The local process backend is
**persistent and warm** (docs/INTERNALS.md §13): the first parallel
batch spawns it with an initializer that pre-builds the batch's
benchmarks and pre-decodes their programs — compiling every fused block
closure into the worker's process-wide blockjit code cache before the
first cell arrives — and later batches on the same engine reuse the
live workers (``pool_reused`` telemetry) instead of paying spawn +
warm-up again.  Cells are submitted in **chunks**: one pickled payload
carries several cells plus the shared timeout/fault-plan, and workers
memoise built benchmarks by name, so a 3-scheme sweep builds each
benchmark once per worker rather than once per cell.  Call
:meth:`Engine.close` (or use the engine as a context manager) to shut
the backend down; a dropped engine cleans up in ``__del__``.

Graceful degradation (docs/INTERNALS.md §11): ``failure_policy``
selects what a cell that exhausts its retry budget does to the batch —
``"raise"`` (default, legacy) aborts with :class:`CellExecutionError`,
while ``"skip"`` and ``"partial"`` record a per-cell failure and keep
serving the surviving cells (``"partial"`` additionally raises
:class:`BatchExecutionError` when *no* cell succeeded).  A worker death
(any exception in the backend's ``broken_exceptions``) is recovered —
on backends whose capability flags include ``rebuild`` — by rebuilding
the pool and resubmitting the interrupted cells; after
``max_pool_rebuilds`` (or immediately, on backends without the
capability) the engine degrades further to in-process serial execution.
Seeded fault injection for all of these paths lives in
:mod:`repro.faults`.

Cells carrying live objects (an explicit ``policy`` instance, a
``preload_database``, a prebuilt benchmark) are executed serially in the
parent process — they are not guaranteed picklable and are never cached.
"""

from __future__ import annotations

import statistics
import time
import traceback as traceback_mod
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultPlan, corrupt_file
from repro.obs.events import (
    BATCH_DEGRADED,
    BATCH_RESUMED,
    CELL_DONE,
    CELL_FAILED,
    CELL_START,
    HOST_DOWN,
    HOST_RECOVERED,
    MEMORY_HIT,
    NULL_TELEMETRY,
    POOL_REUSED,
    POOL_SPAWNED,
    PROGRESS,
    RETRY,
    SCHEDULE_PLANNED,
    SPECULATION_WON,
    STORE_HIT,
    STRAGGLER_DETECTED,
    TIMEOUT,
    TIMEOUT_DISABLED,
    WORKER_CRASH,
    WORKER_WARMUP,
)
from repro.obs.recorder import FlightRecorder, ManifestReplay
from repro.obs.remote import (
    DEFAULT_CELL_EVENT_CAP,
    SNAPSHOT_VERSION,
    merge_chunk_info,
    worker_origin,
)
from repro.sim import schedule as schedule_mod
from repro.sim.costmodel import CostModel
from repro.sim.driver import RunResult, RunSpec
from repro.sim.pools import Pool, make_pool
from repro.sim.pools.base import CellTimeout  # noqa: F401 — re-export
from repro.sim.pools.base import HostDownError
from repro.sim.pools.worker import inject_cell_faults, run_with_alarm
from repro.sim.store import ResultStore

#: Where a cell's result came from (progress callbacks receive this).
SOURCE_MEMORY = "memory"
SOURCE_STORE = "store"
SOURCE_SIMULATED = "simulated"
SOURCE_FAILED = "failed"

#: Batch failure policies (see the module docstring's state machine).
FAILURE_POLICIES = ("raise", "skip", "partial")

#: Shared across all Engine instances by default, so e.g. the CLI's
#: exhibit loop and the bench fixtures see each other's runs.
_MEMORY_CACHE: Dict[Tuple[str, str, str], RunResult] = {}

def clear_memory_cache() -> int:
    """Drop every in-process cached result; returns the count dropped."""
    count = len(_MEMORY_CACHE)
    _MEMORY_CACHE.clear()
    return count


class CellExecutionError(RuntimeError):
    """A cell kept failing after the engine's retry budget was spent."""

    def __init__(self, spec: RunSpec, attempts: int, cause: BaseException):
        super().__init__(
            f"cell ({spec.benchmark_name!r}, {spec.scheme!r}) failed after "
            f"{attempts} attempt(s): {cause!r}"
        )
        self.spec = spec
        self.attempts = attempts
        self.cause = cause


class BatchExecutionError(RuntimeError):
    """A degraded batch the caller cannot proceed with.

    The engine raises it under ``failure_policy="partial"`` when *every*
    cell failed; facades that need a complete batch (e.g.
    ``compare_schemes``) raise it for any failed cell.  Carries the
    assembled :class:`BatchResult` so callers can still inspect the
    per-cell outcomes.
    """

    def __init__(self, batch: "BatchResult", message: Optional[str] = None):
        if message is None:
            message = (
                f"all {len(batch)} cell(s) of the batch failed; first "
                f"error: {batch.failures[0].error}"
            )
        super().__init__(message)
        self.batch = batch


@dataclass
class CellOutcome:
    """Terminal state of one cell in a batch.

    ``status`` is ``"ok"`` (with ``result`` set and ``source`` naming the
    layer that produced it), or one of the failure kinds: ``"failed"``
    (exception exhausted the retry budget), ``"timeout"`` (final error
    was a :class:`CellTimeout`), ``"crashed"`` (worker-process deaths
    exhausted the budget).  Failed cells carry ``repr`` of the final
    error, ``result=None``, and — when available — the formatted
    ``traceback`` (a pool worker's via its ``remote_traceback``
    attribute, or the local one).
    """

    spec: RunSpec
    status: str
    result: Optional[RunResult] = None
    error: Optional[str] = None
    attempts: int = 0
    source: str = ""
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class BatchResult:
    """Per-cell outcomes of one :meth:`Engine.run` call, in order."""

    def __init__(self, outcomes: Sequence[CellOutcome]):
        self.outcomes: List[CellOutcome] = list(outcomes)

    def values(self) -> List[Optional[RunResult]]:
        """Results in cell order; ``None`` where a cell failed.

        The old ``Engine.run(cells) -> list`` shape, kept as a
        convenience: ``engine.run(cells).values()``.
        """
        return [outcome.result for outcome in self.outcomes]

    @property
    def results(self) -> List[Optional[RunResult]]:
        """Alias of :meth:`values` (property form)."""
        return self.values()

    @property
    def ok(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def degraded(self) -> bool:
        """True when at least one cell failed (partial batch)."""
        return any(not o.ok for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[CellOutcome]:
        return iter(self.outcomes)

    def __repr__(self) -> str:
        detail = ", ".join(
            f"{status}={n}" for status, n in sorted(self.counts().items())
        )
        return f"BatchResult({len(self.outcomes)} cells: {detail})"


@dataclass
class EngineStats:
    """Counters for one Engine instance (reset with ``reset()``)."""

    simulations: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    deduplicated: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    pools_spawned: int = 0
    pool_reuses: int = 0
    #: Cells that requested a timeout the engine could not arm (SIGALRM
    #: needs the main thread) and therefore ran unbounded.
    timeouts_unarmed: int = 0
    #: Worker-side telemetry events truncated at the per-cell capture
    #: cap before the snapshot shipped (docs/INTERNALS.md §15).
    remote_events_dropped: int = 0
    #: Resilience counters (docs/INTERNALS.md §16).  Hosts whose
    #: circuit breaker opened / were re-admitted by a half-open probe:
    hosts_down: int = 0
    hosts_recovered: int = 0
    #: Cells rerouted to surviving hosts after a single-host death
    #: (the pool stayed up; contrast ``pool_rebuilds``).
    cells_rerouted: int = 0
    #: Straggling chunks speculatively re-submitted, and races the
    #: speculative copy won.
    stragglers_detected: int = 0
    speculations_won: int = 0
    #: ``run(..., resume=manifest)`` partition of the batch's cells
    #: against the prior run's manifest (done / failed / never-started).
    resumed_done: int = 0
    resumed_failed: int = 0
    resumed_new: int = 0
    #: Cost-model scheduling (docs/INTERNALS.md §18).  Pool rounds the
    #: planner laid out, and how many of their cells had estimates:
    rounds_planned: int = 0
    cells_cost_estimated: int = 0
    #: Rounds packed cost-balanced (vs falling back to legacy chunking).
    rounds_lpt: int = 0
    #: Last planned round's LPT makespan forecast vs what it measured
    #: (seconds; 0.0 until a round with estimates completes).
    predicted_makespan_s: float = 0.0
    actual_makespan_s: float = 0.0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


@dataclass
class CellProgress:
    """One progress-callback notification.

    ``in_flight`` counts cells currently submitted to the backend and
    not yet resolved; ``eta_s`` is a uniform-rate estimate of the
    remaining batch wall-clock (None until one cell has finished, and
    on the final notification).
    """

    done: int
    total: int
    spec: RunSpec
    source: str
    in_flight: int = 0
    eta_s: Optional[float] = None


ProgressCallback = Callable[[CellProgress], None]


class _PoolBroken(Exception):
    """Internal signal: the backend died; these cells were in flight."""

    def __init__(self, interrupted: List[int], cause: BaseException):
        super().__init__(f"pool broken with {len(interrupted)} cells in flight")
        self.interrupted = interrupted
        self.cause = cause


@dataclass(eq=False)
class _Flight:
    """One chunk submitted to the backend and not yet settled."""

    chunk: List[int]
    #: ``time.perf_counter()`` at submission (straggler clock).
    started: float
    #: The other copy of a speculated chunk (docs/INTERNALS.md §16);
    #: the original and its twin point at each other.
    twin: Optional[Future] = None
    #: True for the speculative copy, False for the original.
    speculative: bool = False


class Engine:
    """Executes batches of :class:`RunSpec` cells with caching + fan-out.

    Every execution setting is a keyword here, and only here;
    :func:`repro.sim.experiment.make_engine` maps an
    :class:`~repro.sim.options.ExecutionOptions` bundle (the CLI's
    flags) onto these keywords.

    Parameters
    ----------
    jobs:
        Worker processes for cells that must simulate.  ``1`` (default)
        runs everything in the calling process; ``N > 1`` is shorthand
        for ``pool="local:N"``.
    pool:
        Execution backend: a spec string resolved through
        :func:`repro.sim.pools.make_pool` (``"serial"``, ``"local:4"``,
        ``"ssh:hostfile"``, ``"ssh-loopback:2"``) or an already
        constructed :class:`~repro.sim.pools.Pool`.  Overrides ``jobs``.
        Backends with the ``warm_start`` capability pre-build the first
        batch's benchmarks and pre-decode their programs in every worker
        at spawn (docs/INTERNALS.md §13; ``worker_warmup`` telemetry);
        later batches reuse the live pool and the workers' memoised
        benchmarks.
    store:
        A :class:`ResultStore` for cross-process persistence, or ``None``
        to keep results in memory only.
    use_cache:
        When False, both cache layers are bypassed *in both directions*:
        nothing is read, nothing is written, every cell simulates.
    cell_timeout:
        Per-cell wall-clock budget in seconds (None = unbounded).  A
        timed-out cell is retried like any other failure.
    max_retries:
        Extra attempts per cell after the first failure.  Retries are
        resubmitted at once, without backoff.
    failure_policy:
        ``"raise"`` (default): a cell that exhausts its retries aborts
        the batch with :class:`CellExecutionError` — the legacy
        contract.  ``"skip"``: the failure is recorded as a
        :class:`CellOutcome` and the batch keeps going; ``run()``
        leaves ``None`` in that cell's ``values()`` slot.  ``"partial"``:
        like ``"skip"``, but a batch in which *every* cell failed raises
        :class:`BatchExecutionError`.
    straggler_factor:
        Straggler mitigation (docs/INTERNALS.md §16): when set, a
        chunk whose runtime exceeds ``straggler_factor`` times the
        robust per-chunk estimate (median + 3×MAD of completed cell
        durations) is speculatively re-submitted to an idle worker;
        first result wins, the loser is cancelled, and when both
        complete their results are asserted bit-identical.  ``None``
        (default) disables speculation.  Only meaningful on parallel
        backends with spare capacity.
    resume:
        Crash-safe resume (docs/INTERNALS.md §16): a flight-recorder
        manifest path from a previous (killed) run.  The manifest is
        replayed to partition this batch's cells into done / failed /
        never-started (``stats.resumed_*``); execution itself is
        unchanged — finished cells are answered by the result store
        under the same fingerprints (zero re-simulation; entries GC'd
        from the store simply re-execute), and the new manifest links
        back to the original (``resume_of``).  Consumed by the next
        :meth:`run` call; ``run(cells, resume=...)`` overrides.
    max_pool_rebuilds:
        How many times a batch may rebuild a broken backend (worker
        crash recovery) before degrading to in-process serial execution
        for the interrupted cells (default 3).  Backends without the
        ``rebuild`` capability degrade immediately.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`.  ``None`` (default)
        injects nothing and adds no overhead.  A plan whose sites
        perturb simulation results (profiling noise, drift, injected
        reconfiguration denials) makes every cell non-cacheable for the
        batch: perturbed results must never leak into either cache
        layer.
    progress:
        Callback receiving a :class:`CellProgress` per finished cell.
    runner:
        Test/extension hook replacing :func:`repro.sim.driver.execute`;
        forces serial in-process execution.
    telemetry:
        Optional :class:`repro.obs.Telemetry` session.  The engine emits
        wall-clock scheduling events into it (``cell_start``,
        ``cell_done``, ``store_hit``, ``memory_hit``, ``retry``,
        ``timeout``, a per-cell ``progress`` heartbeat, and the
        degradation events ``worker_crash``, ``cell_failed``,
        ``batch_degraded``, ``timeout_disabled``); cells executed
        *serially* additionally stream their simulation-side tuning
        events into the same session.  Cells that run through a pool
        backend capture their tuning events worker-side instead
        (bounded per cell by ``remote_capture_events``), ship them back
        on the chunk reply, and the engine clock-rebases and merges
        them into this session on per-worker/per-cell tracks — so one
        unified trace covers every backend (docs/INTERNALS.md §15).
        The capture is requested only when this session is live;
        telemetry never changes what a cell computes.
    remote_capture_events:
        Per-cell event budget for worker-side capture (default
        :data:`repro.obs.remote.DEFAULT_CELL_EVENT_CAP`); events beyond
        it are counted in ``stats.remote_events_dropped``.  ``0``
        disables worker-side capture entirely.
    recorder:
        Optional :class:`repro.obs.FlightRecorder` writing the per-run
        JSONL manifest (batch config, per-cell outcomes, degradation
        notes).  Defaults to :meth:`FlightRecorder.from_env`, i.e. a
        recorder under ``$REPRO_FLIGHT_DIR`` when that is set.
    chunk_size:
        Cells per pool submission.  ``None`` (default) picks
        ``ceil(cells / (workers * 4))`` capped at 8 — enough chunks to
        keep every worker busy for several rounds while amortising
        pickling, without collapsing the crash-retry granularity of
        small batches.  Retries are always resubmitted as single-cell
        chunks.
    schedule:
        Chunk-planning mode (docs/INTERNALS.md §18).  ``"lpt"``
        (default) packs pool rounds cost-balanced from the cost model's
        runtime estimates — longest-estimated work first, chunk sizes
        weighted by observed per-host speed — and degrades to exactly
        the ``"fifo"`` behaviour (submission order, count-based
        chunks) while no history exists.  ``"fifo"`` forces the legacy
        plan unconditionally.  Scheduling is semantics-free: results
        and their ordering are bit-identical either way (conformance
        tested); only wall-clock changes.
    cost_model:
        The :class:`~repro.sim.costmodel.CostModel` feeding the
        scheduler, shared across engines if desired.  ``None`` builds a
        private one, loaded from ``cost_model_dir`` when set and
        warm-booted from the result store's entry metadata on the
        first planned round.
    cost_model_dir:
        Directory the cost model snapshots itself into
        (``cost_model.json``, written after each batch that learned
        something); ``None`` keeps the model in memory only.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        cell_timeout: Optional[float] = None,
        max_retries: int = 1,
        failure_policy: str = "raise",
        max_pool_rebuilds: int = 3,
        fault_plan: Optional[FaultPlan] = None,
        progress: Optional[ProgressCallback] = None,
        runner: Optional[Callable[[RunSpec], RunResult]] = None,
        memory_cache: Optional[Dict] = None,
        telemetry=None,
        chunk_size: Optional[int] = None,
        pool: Union[str, Pool, None] = None,
        remote_capture_events: Optional[int] = None,
        recorder: Optional[FlightRecorder] = None,
        straggler_factor: Optional[float] = None,
        resume: Union[str, Path, None] = None,
        schedule: str = "lpt",
        cost_model: Optional[CostModel] = None,
        cost_model_dir: Union[str, Path, None] = None,
    ):
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, got "
                f"{failure_policy!r}"
            )
        if schedule not in schedule_mod.SCHEDULE_MODES:
            raise ValueError(
                f"schedule must be one of {schedule_mod.SCHEDULE_MODES}, "
                f"got {schedule!r}"
            )
        if pool is None:
            pool = f"local:{jobs}" if (jobs or 1) > 1 else "serial"
        self.pool: Pool = make_pool(pool) if isinstance(pool, str) else pool
        self.jobs = self.pool.workers if self.pool.capabilities.parallel else 1
        self.store = store
        self.use_cache = use_cache
        self.cell_timeout = cell_timeout
        self.max_retries = max(0, int(max_retries))
        self.failure_policy = failure_policy
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))
        self.fault_plan = fault_plan
        self.progress = progress
        self.runner = runner
        self._memory = (
            _MEMORY_CACHE if memory_cache is None else memory_cache
        )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.chunk_size = (
            None if chunk_size is None else max(1, int(chunk_size))
        )
        self.remote_capture_events = (
            DEFAULT_CELL_EVENT_CAP
            if remote_capture_events is None
            else max(0, int(remote_capture_events))
        )
        self.recorder = (
            recorder if recorder is not None else FlightRecorder.from_env()
        )
        self.straggler_factor = (
            None
            if straggler_factor is None or straggler_factor <= 0
            else float(straggler_factor)
        )
        self._resume: Union[str, Path, None] = resume
        self.schedule = schedule
        self._cost_model_dir = (
            None if cost_model_dir is None else Path(cost_model_dir)
        )
        if cost_model is not None:
            self.cost_model = cost_model
        elif self._cost_model_dir is not None:
            self.cost_model = CostModel.load_dir(self._cost_model_dir)
        else:
            self.cost_model = CostModel()
        #: Store-metadata warm boot happens once, lazily, before the
        #: first planned round (scanning the store is not free).
        self._cost_bootstrapped = False
        self.stats = EngineStats()
        self._unarmed_warned = False
        self._store_pending: List[Tuple] = []
        #: Per-track high-water marks for clock-rebased worker events;
        #: engine-lifetime so merged tracks stay monotone across batches.
        self._remote_hwm: Dict[str, float] = {}
        self._in_flight = 0
        self._run_t0 = time.perf_counter()
        #: The in-flight table of the current pool round.
        self._flights: Dict[Future, _Flight] = {}

    # -- public API --------------------------------------------------------

    def run(
        self,
        cells: Sequence[RunSpec],
        resume: Union[str, Path, None] = None,
    ) -> "BatchResult":
        """Resolve every cell (cache, store, or backend) into a
        :class:`BatchResult` of per-cell :class:`CellOutcome`\\ s.

        ``run(cells).values()`` gives the old list-of-results shape.
        Under ``failure_policy="skip"``/``"partial"`` a failed cell's
        ``values()`` slot holds ``None``.  ``resume`` names a previous
        run's flight-recorder manifest to replay (see the constructor
        docstring); it overrides any ``Engine(resume=...)`` default.
        """
        specs = list(cells)
        # One fingerprint per cell per batch: lookup, de-duplication,
        # store writes and the flight recorder all share these keys.
        keys = [
            spec.cache_key() if spec.cacheable else None for spec in specs
        ]
        resume_path = resume if resume is not None else self._resume
        self._resume = None
        replay: Optional[ManifestReplay] = None
        resume_counts: Optional[Dict[str, int]] = None
        if resume_path is not None:
            replay = FlightRecorder.replay(resume_path)
            resume_counts = self._apply_resume(specs, keys, replay)
        recorder = self.recorder
        if recorder is not None:
            recorder.begin_batch(
                backend=self.pool.name,
                workers=self.pool.workers,
                failure_policy=self.failure_policy,
                cell_timeout=self.cell_timeout,
                max_retries=self.max_retries,
                fault_plan=self.fault_plan,
                cells=[_identity(s, k) for s, k in zip(specs, keys)],
                resume_of=None if replay is None else str(replay.path),
                resume_counts=resume_counts,
            )
        try:
            batch = self._run_specs(specs, keys)
        except BaseException as error:
            if recorder is not None:
                recorder.batch_aborted(error)
            raise
        if recorder is not None:
            recorder.end_batch(
                batch, self.stats, self.telemetry.log.dropped
            )
        if self._cost_model_dir is not None and self.cost_model.dirty:
            self.cost_model.save_dir(self._cost_model_dir)
        return batch

    def _apply_resume(
        self,
        specs: List[RunSpec],
        keys: List[Optional[Tuple[str, str, str]]],
        replay: ManifestReplay,
    ) -> Dict[str, int]:
        """Partition this batch's cells against a prior run's manifest.

        The partition is bookkeeping, not a scheduling change: done
        cells still flow through the normal lookup path, where the
        result store answers them under the same fingerprint (zero
        re-simulation).  A store entry GC'd between the runs simply
        misses and re-executes — resume is idempotent, never trusting
        the manifest over the store.
        """
        counts = {"done": 0, "failed": 0, "new": 0}
        for key in keys:
            counts["new" if key is None else replay.classify(key)] += 1
        self.stats.resumed_done += counts["done"]
        self.stats.resumed_failed += counts["failed"]
        self.stats.resumed_new += counts["new"]
        self.telemetry.emit_wall(
            BATCH_RESUMED,
            resume_of=str(replay.path),
            prior_completed=replay.completed,
            prior_aborted=replay.aborted,
            **counts,
        )
        self.telemetry.metrics.counter("engine.batches_resumed").inc()
        return counts

    def _run_specs(
        self,
        specs: List[RunSpec],
        keys: List[Optional[Tuple[str, str, str]]],
    ) -> "BatchResult":
        self._specs, self._keys = specs, keys
        self._outcomes: List[Optional[CellOutcome]] = [None] * len(specs)
        self._done, self._total = 0, len(specs)
        self._run_t0 = time.perf_counter()
        self._in_flight = 0

        pending: List[int] = []
        leaders: Dict[Tuple[str, str, str], int] = {}
        followers: Dict[int, List[int]] = {}
        for index, (spec, key) in enumerate(zip(specs, keys)):
            hit = self._lookup(spec, key)
            if hit is not None:
                result, source = hit
                self._finish(
                    index,
                    CellOutcome(
                        spec=spec, status="ok", result=result, source=source
                    ),
                )
                continue
            if self.use_cache and key is not None:
                leader = leaders.setdefault(key, index)
                if leader != index:
                    followers.setdefault(leader, []).append(index)
                    self.stats.deduplicated += 1
                    continue
            pending.append(index)

        if pending:
            try:
                self._execute_pending(pending)
            finally:
                self._flush_store()
        for leader, dupes in followers.items():
            first = self._outcomes[leader]
            for index in dupes:
                if first.ok:
                    outcome = CellOutcome(
                        spec=specs[index],
                        status="ok",
                        result=first.result,
                        source=SOURCE_MEMORY,
                    )
                else:
                    # Mirror the leader's failure onto its duplicates.
                    outcome = CellOutcome(
                        spec=specs[index],
                        status=first.status,
                        error=first.error,
                        attempts=first.attempts,
                        source=SOURCE_FAILED,
                    )
                self._finish(index, outcome)
        batch = BatchResult(self._outcomes)  # type: ignore[arg-type]
        if batch.degraded:
            telemetry = self.telemetry
            telemetry.emit_wall(
                BATCH_DEGRADED,
                failed=len(batch.failures),
                total=len(batch),
            )
            telemetry.metrics.counter("engine.batches_degraded").inc()
            if self.failure_policy == "partial" and not batch.ok:
                raise BatchExecutionError(batch)
        return batch

    def run_one(self, spec: RunSpec) -> RunResult:
        """Single-cell convenience wrapper around :meth:`run`."""
        return self.run([spec]).values()[0]

    def close(self) -> None:
        """Shut down the execution backend (idempotent, exception-safe).

        Waits for idle shutdown; the engine stays usable — the next
        parallel batch simply starts (and re-warms) the backend again.
        Safe on a half-constructed engine (a constructor that raised
        before assigning the pool) and on a pool whose backend state is
        already broken — e.g. closing after a degrade-to-serial: a
        failing idle shutdown is retried fail-fast, and a backend that
        will not even do that is abandoned rather than propagated.
        """
        pool = getattr(self, "pool", None)
        if pool is None:
            return
        try:
            pool.close(fail_fast=False)
        except Exception:
            try:
                pool.close(fail_fast=True)
            except Exception:
                pass

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC timing
        pool = getattr(self, "pool", None)
        if pool is None:
            return
        try:
            pool.close(fail_fast=True)
        except Exception:
            pass

    # -- cache layers ------------------------------------------------------

    def _cell_cacheable(self, key: Optional[Tuple[str, str, str]]) -> bool:
        """Both layers readable/writable for this cell in this engine?

        A fault plan that perturbs simulation results poisons every cell
        it touches: such results are functions of ``(spec, plan)``, not
        of the configuration fingerprint, and must never be cached.
        """
        if not self.use_cache or key is None:
            return False
        plan = self.fault_plan
        return plan is None or not plan.perturbs_simulation

    def _lookup(
        self, spec: RunSpec, key: Optional[Tuple[str, str, str]]
    ) -> Optional[Tuple[RunResult, str]]:
        if not self._cell_cacheable(key):
            return None
        if key in self._memory:
            self.stats.memory_hits += 1
            self.telemetry.emit_wall(
                MEMORY_HIT,
                benchmark=spec.benchmark_name,
                scheme=spec.scheme,
            )
            self.telemetry.metrics.counter("engine.memory_hits").inc()
            return self._memory[key], SOURCE_MEMORY
        if self.store is not None:
            result = self.store.get(*key)
            if result is not None:
                self._memory[key] = result
                self.stats.store_hits += 1
                self.telemetry.emit_wall(
                    STORE_HIT,
                    benchmark=spec.benchmark_name,
                    scheme=spec.scheme,
                )
                self.telemetry.metrics.counter("engine.store_hits").inc()
                return result, SOURCE_STORE
        return None

    def _record(
        self,
        index: int,
        result: RunResult,
        elapsed_s: Optional[float] = None,
        executed_by: Optional[str] = None,
    ) -> None:
        key = self._keys[index]
        if not self._cell_cacheable(key):
            return
        self._memory[key] = result
        if self.store is not None:
            # The memory-cache write above serves intra-batch duplicates;
            # the disk write is deferred and flushed once per batch.
            # Measured runtime and executor identity ride along as the
            # entry's meta block, warm-booting future processes' cost
            # models (docs/INTERNALS.md §18).
            meta = (
                self.cost_model.store_meta(
                    self._specs[index], elapsed_s, executed_by
                )
                if elapsed_s is not None
                else None
            )
            self._store_pending.append((key, result, meta))

    def _flush_store(self) -> None:
        """Batch-write this batch's simulated results to the store.

        One :meth:`ResultStore.put_many` pass instead of a put per cell;
        runs in a ``finally`` so results completed before a mid-batch
        failure are still persisted (the pre-batching contract).
        """
        pending, self._store_pending = self._store_pending, []
        if self.store is None or not pending:
            return
        paths = self.store.put_many(
            (key[0], key[1], key[2], result, meta)
            for key, result, meta in pending
        )
        plan = self.fault_plan
        if plan is not None:
            for (key, _, _), path in zip(pending, paths):
                if plan.decide("store_corrupt", key):
                    corrupt_file(path)

    def _finish(self, index: int, outcome: CellOutcome) -> None:
        """Settle cell ``index`` for good: record its outcome, write its
        flight-recorder line, and notify progress."""
        self._outcomes[index] = outcome
        if self.recorder is not None:
            # The fingerprint makes the cell record replayable:
            # ``--resume`` matches manifest records to store entries by
            # the same triple.
            key = self._keys[index]
            self.recorder.cell(
                benchmark=outcome.spec.benchmark_name,
                scheme=outcome.spec.scheme,
                status=outcome.status,
                attempts=outcome.attempts,
                source=outcome.source,
                error=outcome.error,
                traceback=outcome.traceback,
                fingerprint=None if key is None else key[2],
            )
        self._notify(outcome.spec, outcome.source)

    def _notify(self, spec: RunSpec, source: str) -> None:
        self._done += 1
        done, total = self._done, self._total
        eta = None
        if done < total:
            elapsed = time.perf_counter() - self._run_t0
            eta = elapsed / done * (total - done)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit_wall(
                PROGRESS,
                done=done,
                total=total,
                in_flight=self._in_flight,
                source=source,
                benchmark=spec.benchmark_name,
                scheme=spec.scheme,
                eta_s=eta,
            )
        if self.progress is not None:
            self.progress(
                CellProgress(
                    done,
                    total,
                    spec,
                    source,
                    in_flight=self._in_flight,
                    eta_s=eta,
                )
            )

    # -- settling cells ----------------------------------------------------

    def _record_success(
        self,
        index: int,
        result: RunResult,
        attempts: int,
        elapsed_s: Optional[float] = None,
        executed_by: Optional[str] = None,
    ) -> None:
        spec = self._specs[index]
        self.stats.simulations += 1
        self.telemetry.metrics.counter("engine.simulations").inc()
        if elapsed_s is not None:
            self.cost_model.observe(spec, elapsed_s)
        self._record(index, result, elapsed_s, executed_by)
        if self.recorder is not None:
            # Write-ahead ordering for crash-safe resume (docs §16): the
            # store write must be durable before the manifest says
            # "done", so a SIGKILL between the two re-executes the cell
            # rather than trusting a record the store cannot back.
            self._flush_store()
        self._finish(
            index,
            CellOutcome(
                spec=spec,
                status="ok",
                result=result,
                attempts=attempts,
                source=SOURCE_SIMULATED,
            ),
        )

    def _settle_error(
        self,
        index: int,
        attempts: int,
        error: BaseException,
        track: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> bool:
        """One failed attempt of cell ``index``: True when it should be
        retried, False once it failed for good under a skip/partial
        policy (``"raise"`` raises :class:`CellExecutionError`).

        The serial path, the pool path and crash recovery all settle
        errors here; ``track`` and ``reason`` label the events.
        """
        spec = self._specs[index]
        telemetry = self.telemetry
        where = {} if track is None else {"track": track}
        if isinstance(error, CellTimeout):
            self.stats.timeouts += 1
            telemetry.emit_wall(
                TIMEOUT,
                **where,
                benchmark=spec.benchmark_name,
                scheme=spec.scheme,
            )
            telemetry.metrics.counter("engine.timeouts").inc()
        if attempts > self.max_retries:
            if self.failure_policy == "raise":
                raise CellExecutionError(spec, attempts, error) from error
            self._record_failure(index, attempts, error)
            return False
        self.stats.retries += 1
        if reason is not None:
            where["reason"] = reason
        telemetry.emit_wall(
            RETRY,
            benchmark=spec.benchmark_name,
            scheme=spec.scheme,
            attempt=attempts,
            **where,
        )
        telemetry.metrics.counter("engine.retries").inc()
        return True

    def _record_failure(
        self, index: int, attempts: int, error: BaseException
    ) -> None:
        """Terminal failure of one cell under skip/partial policies."""
        spec = self._specs[index]
        if isinstance(error, CellTimeout):
            status = "timeout"
        elif isinstance(
            error,
            (_PoolBroken, HostDownError) + self.pool.broken_exceptions,
        ):
            status = "crashed"
        else:
            status = "failed"
        tb = getattr(error, "remote_traceback", None)
        if tb is None and error.__traceback__ is not None:
            tb = "".join(
                traceback_mod.format_exception(
                    type(error), error, error.__traceback__
                )
            )
        self.stats.failures += 1
        telemetry = self.telemetry
        telemetry.emit_wall(
            CELL_FAILED,
            benchmark=spec.benchmark_name,
            scheme=spec.scheme,
            status=status,
            attempts=attempts,
            error=repr(error)[:200],
        )
        telemetry.metrics.counter("engine.cell_failures").inc()
        self._finish(
            index,
            CellOutcome(
                spec=spec,
                status=status,
                error=repr(error),
                attempts=attempts,
                source=SOURCE_FAILED,
                traceback=tb,
            ),
        )

    def _note_unarmed_timeout(self, count: int = 1) -> None:
        """Cell timeouts that could not be armed (no usable main thread —
        either the engine runs off the main thread, or a pool worker's
        chunk reported ``unarmed_timeouts``)."""
        self.stats.timeouts_unarmed += count
        if not self._unarmed_warned:
            self._unarmed_warned = True
            self.telemetry.emit_wall(
                TIMEOUT_DISABLED,
                reason="SIGALRM needs the main thread; cells run unbounded",
            )
            self.telemetry.metrics.counter("engine.timeouts_unarmed").inc()

    def _drain_health(self) -> None:
        """Forward the pool's buffered health transitions into
        telemetry, stats, and the flight recorder (docs §16)."""
        events = self.pool.drain_health_events()
        if not events:
            return
        telemetry = self.telemetry
        for name, fields in events:
            if name == HOST_DOWN:
                self.stats.hosts_down += 1
            elif name == HOST_RECOVERED:
                self.stats.hosts_recovered += 1
            telemetry.emit_wall(name, backend=self.pool.name, **fields)
            telemetry.metrics.counter(f"engine.{name}").inc()
            if self.recorder is not None:
                self.recorder.note(name, backend=self.pool.name, **fields)

    # -- execution ---------------------------------------------------------

    def _execute_pending(self, pending: List[int]) -> None:
        pool_eligible = [
            i for i in pending if self._pool_eligible(self._specs[i])
        ]
        # A single eligible cell normally runs serially (cheaper, and it
        # streams simulation telemetry directly) — unless the parent's
        # telemetry session is live and worker-side capture is on, in
        # which case routing through the pool exercises the same
        # capture/merge path a multi-cell batch uses, keeping traces
        # uniform across batch sizes.
        serial = pending
        if self.pool.capabilities.parallel and (
            len(pool_eligible) > 1
            or (
                pool_eligible
                and self.telemetry.enabled
                and self.remote_capture_events > 0
            )
        ):
            self._run_pool(pool_eligible)
            in_pool = set(pool_eligible)
            serial = [i for i in pending if i not in in_pool]
        for index in serial:
            self._run_serial(index)

    def _pool_eligible(self, spec: RunSpec) -> bool:
        return (
            self.runner is None
            and isinstance(spec.benchmark, str)
            and spec.policy is None
            and spec.preload_database is None
        )

    def _run_serial(self, index: int) -> None:
        spec = self._specs[index]
        telemetry = self.telemetry
        attempts = 0
        while True:
            attempts += 1
            started = telemetry.now_us()
            telemetry.emit_wall(
                CELL_START,
                track="worker:0",
                ts=started,
                benchmark=spec.benchmark_name,
                scheme=spec.scheme,
                attempt=attempts,
            )
            cell_t0 = time.perf_counter()
            try:
                if self.runner is not None:
                    result = self.runner(spec)
                else:
                    inject_cell_faults(self.fault_plan, spec, attempts)
                    result = run_with_alarm(
                        spec,
                        self.cell_timeout,
                        telemetry if telemetry.enabled else None,
                        fault_plan=self.fault_plan,
                        on_unarmed=self._note_unarmed_timeout,
                    )
            except Exception as error:  # noqa: BLE001 — retry boundary
                if self._settle_error(index, attempts, error, "worker:0"):
                    continue
                return
            break
        elapsed_s = time.perf_counter() - cell_t0
        telemetry.emit_wall(
            CELL_DONE,
            track="worker:0",
            ts=started,
            dur=telemetry.now_us() - started,
            benchmark=spec.benchmark_name,
            scheme=spec.scheme,
        )
        self._record_success(
            index, result, attempts,
            elapsed_s=elapsed_s, executed_by=worker_origin(),
        )

    # -- pool execution -----------------------------------------------------

    def _run_pool(self, indices: List[int]) -> None:
        """Backend fan-out with worker-crash recovery.

        Attempt counters, display lanes, and submission ordinals survive
        pool rebuilds, so a cell's retry budget is global across crashes
        and the telemetry lanes stay stable.  Backends without the
        ``rebuild`` capability degrade straight to serial on the first
        crash.
        """
        self._attempts: Dict[int, int] = {i: 0 for i in indices}
        self._lanes: Dict[int, int] = {}
        self._submitted_at: Dict[int, float] = {}
        self._submissions = 0
        to_run = list(indices)
        rebuilds = 0
        while to_run:
            try:
                self._run_round(to_run)
                return
            except _PoolBroken as broken:
                self._drain_health()
                to_run = self._survivors_of_crash(broken)
                if not to_run:
                    return
                rebuilds += 1
                self.stats.pool_rebuilds += 1
                if (
                    rebuilds > self.max_pool_rebuilds
                    or not self.pool.capabilities.rebuild
                ):
                    # The backend keeps dying (or cannot be rebuilt):
                    # degrade to in-process serial execution for
                    # whatever is left.  Worker-crash injection never
                    # fires in the parent process, and a genuinely
                    # poisoned environment at least fails with an
                    # attributable per-cell error.
                    if self.recorder is not None:
                        self.recorder.note(
                            "degraded_to_serial",
                            backend=self.pool.name,
                            rebuilds=rebuilds,
                            cells=len(to_run),
                        )
                    for index in to_run:
                        self._run_serial(index)
                    return

    def _survivors_of_crash(self, broken: _PoolBroken) -> List[int]:
        """Split crash-interrupted cells into resubmittable vs. exhausted."""
        telemetry = self.telemetry
        self.stats.worker_crashes += 1
        telemetry.emit_wall(
            WORKER_CRASH,
            backend=self.pool.name,
            interrupted=len(broken.interrupted),
            error=repr(broken.cause)[:200],
        )
        telemetry.metrics.counter("engine.worker_crashes").inc()
        if self.recorder is not None:
            self.recorder.note(
                "worker_crash",
                backend=self.pool.name,
                interrupted=len(broken.interrupted),
                error=repr(broken.cause)[:200],
            )
        return [
            index
            for index in broken.interrupted
            if self._settle_error(
                index,
                self._attempts[index],
                broken.cause,
                reason="worker_crash",
            )
        ]

    def _ensure_pool(self, indices: List[int]) -> Pool:
        """The live backend, starting (and warming) it if needed."""
        telemetry = self.telemetry
        pool = self.pool
        warm: Dict[str, None] = {}
        if pool.capabilities.warm_start:
            for index in indices:
                warm.setdefault(self._specs[index].benchmark_name, None)
        spawned = pool.start(tuple(warm))
        if spawned:
            self.stats.pools_spawned += 1
            telemetry.emit_wall(
                POOL_SPAWNED,
                backend=pool.name,
                jobs=pool.workers,
                warmed=list(warm),
            )
            telemetry.metrics.counter("engine.pools_spawned").inc()
        else:
            self.stats.pool_reuses += 1
            telemetry.emit_wall(
                POOL_REUSED,
                backend=pool.name,
                jobs=pool.workers,
                warmed=list(getattr(pool, "warmed", ())),
            )
            telemetry.metrics.counter("engine.pool_reuses").inc()
        return pool

    def _plan_round(
        self, indices: List[int]
    ) -> Tuple["schedule_mod.RoundPlan", Dict[int, Optional[float]]]:
        """Lay out one pool round from the cost model's estimates.

        Returns the plan plus the per-cell estimate map (the straggler
        budget reuses it).  Under ``schedule="fifo"`` — or with no
        usable history — this reproduces the legacy partition exactly;
        see :func:`repro.sim.schedule.plan_round`.
        """
        estimates: Dict[int, Optional[float]] = {}
        slot_weights = None
        if self.schedule == "lpt":
            if not self._cost_bootstrapped:
                self._cost_bootstrapped = True
                if self.store is not None:
                    self.cost_model.bootstrap_from_store(self.store)
            estimates = {
                i: self.cost_model.estimate(self._specs[i]) for i in indices
            }
            try:
                slot_weights = self.cost_model.host_weights(
                    self.pool.host_slots()
                )
            except Exception:
                slot_weights = None
        plan = schedule_mod.plan_round(
            indices,
            estimates,
            workers=self.pool.workers,
            chunk_size=self.chunk_size,
            schedule=self.schedule,
            slot_weights=slot_weights,
        )
        self.stats.rounds_planned += 1
        self.stats.cells_cost_estimated += plan.estimated_cells
        if plan.mode == "lpt":
            self.stats.rounds_lpt += 1
            self.stats.predicted_makespan_s = plan.predicted_makespan_s
        return plan, estimates

    def _run_round(self, indices: List[int]) -> None:
        """One round against the persistent backend; raises
        :class:`_PoolBroken` on worker death.

        Cells go out in chunks (shared timeout/plan payload, per-cell
        outcomes back) and every submitted chunk sits in the in-flight
        table ``{future: _Flight}`` until it lands; retries are
        resubmitted as single-cell chunks so a flaky cell cannot hold
        healthy chunk-mates hostage.  Any failure path discards the
        backend fail-fast — it may hold in-flight work of a poisoned
        batch and must not leak into the next one.
        """
        telemetry = self.telemetry
        pool = self._ensure_pool(indices)
        plan, self._estimates = self._plan_round(indices)
        round_t0 = time.perf_counter()
        self._flights = {}
        #: Completed per-cell durations feeding the median+MAD
        #: straggler estimate (docs/INTERNALS.md §16).
        self._durations: List[float] = []
        # Worker-side telemetry capture is requested only when the
        # parent session is live, so the NULL_TELEMETRY default keeps
        # the 3-field payload on the wire.
        self._capture = (
            {"max_events": self.remote_capture_events}
            if telemetry.enabled and self.remote_capture_events > 0
            else None
        )
        # With speculation enabled the wait polls so a straggling
        # chunk is noticed while its future is still pending.
        poll = 0.05 if self.straggler_factor is not None else None
        try:
            for chunk in plan.chunks:
                self._submit(chunk)
            while self._flights:
                finished, _ = wait(
                    list(self._flights),
                    timeout=poll,
                    return_when=FIRST_COMPLETED,
                )
                self._drain_health()
                for future in finished:
                    # A future no longer in the table lost a race that
                    # its twin already settled.
                    if future in self._flights:
                        self._land(future)
                self._check_stragglers()
            self._drain_health()
        except BaseException:
            # Fatal exits (CellExecutionError, _PoolBroken) must not sit
            # waiting for in-flight cells of a poisoned batch, and the
            # backend itself is suspect: drop it fail-fast.  The clean
            # exit keeps the warm pool alive for the next batch.
            self._flights = {}
            self._in_flight = 0
            pool.close(fail_fast=True)
            raise
        actual_s = time.perf_counter() - round_t0
        self.stats.actual_makespan_s += actual_s
        telemetry.emit_wall(
            SCHEDULE_PLANNED,
            backend=pool.name,
            mode=plan.mode,
            chunks=len(plan.chunks),
            cells=len(indices),
            estimated_cells=plan.estimated_cells,
            weighted=plan.slot_weights is not None,
            predicted_makespan_s=round(plan.predicted_makespan_s, 4),
            actual_makespan_s=round(actual_s, 4),
        )
        telemetry.metrics.counter("engine.rounds_planned").inc()

    def _submit(
        self, chunk: List[int], twin_of: Optional[Future] = None
    ) -> None:
        """Put one chunk in flight: a first submission, a single-cell
        retry, or — with ``twin_of`` — the speculative copy of a
        straggling chunk.

        A twin re-runs the same cells at the *same* attempt numbers (no
        retry budget consumed, no second ``cell_start``) — speculation
        is pure scheduling, so the fault plan's per-attempt decisions
        replay identically while host-keyed delays redraw on the new
        host.
        """
        specs = self._specs
        if twin_of is None:
            telemetry = self.telemetry
            lane = self._submissions % max(1, self.pool.workers)
            self._submissions += 1
            for index in chunk:
                self._attempts[index] += 1
                self._lanes.setdefault(index, lane)
                self._submitted_at[index] = telemetry.now_us()
                telemetry.emit_wall(
                    CELL_START,
                    track=f"worker:{self._lanes[index]}",
                    ts=self._submitted_at[index],
                    benchmark=specs[index].benchmark_name,
                    scheme=specs[index].scheme,
                    attempt=self._attempts[index],
                )
        cells = tuple((i, specs[i], self._attempts[i]) for i in chunk)
        payload = (cells, self.cell_timeout, self.fault_plan)
        if self._capture is not None:
            payload = payload + (self._capture,)
        try:
            future = self.pool.submit_chunk(payload)
        except self.pool.broken_exceptions as error:
            raise self._broken(chunk, error) from error
        flight = _Flight(list(chunk), time.perf_counter())
        if twin_of is not None:
            flight.twin, flight.speculative = twin_of, True
            self._flights[twin_of].twin = future
        self._flights[future] = flight
        self._sync_in_flight()

    def _sync_in_flight(self) -> None:
        # Distinct cells, so a speculation twin never double-counts.
        self._in_flight = len(
            {i for flight in self._flights.values() for i in flight.chunk}
        )

    def _broken(self, chunk: List[int], cause: BaseException) -> _PoolBroken:
        """Empty the in-flight table into a :class:`_PoolBroken`."""
        interrupted = set(chunk)
        for flight in self._flights.values():
            interrupted.update(flight.chunk)
        self._flights = {}
        self._in_flight = 0
        return _PoolBroken(sorted(interrupted), cause)

    def _land(self, future: Future) -> None:
        """Settle one finished chunk: resolve its speculation race, then
        each of its cells (success, retry, or terminal failure)."""
        flight = self._flights.pop(future)
        error = future.exception()
        if isinstance(error, self.pool.broken_exceptions):
            raise self._broken(flight.chunk, error) from error
        partner = flight.twin
        if partner in self._flights:
            if error is not None:
                # One speculation copy died (e.g. HostDownError — its
                # host's breaker opened) while the other is still live:
                # drop this copy silently; the survivor carries the
                # cells at the same attempt numbers.
                self._flights[partner].twin = None
                self._sync_in_flight()
                return
            self._win_race(future, flight, partner)
        chunk = flight.chunk
        if error is None:
            warmup, outcomes, cell_times, executed_by = self._read_reply(
                future, flight
            )
        else:
            # The chunk itself failed (not one of its cells — e.g. an
            # unpicklable payload, or a HostDownError for a chunk
            # stranded on a dead host): feed the error to every member
            # through the normal retry machinery, which resubmits to
            # surviving workers.
            if isinstance(error, HostDownError):
                self.stats.cells_rerouted += len(chunk)
                self.telemetry.metrics.counter(
                    "engine.cells_rerouted"
                ).inc(len(chunk))
            warmup, executed_by, cell_times = None, None, {}
            outcomes = [(index, "error", error) for index in chunk]
        telemetry = self.telemetry
        if warmup is not None:
            telemetry.emit_wall(WORKER_WARMUP, **warmup)
            telemetry.metrics.counter("engine.worker_warmups").inc()
        retry: List[int] = []
        for index, status, value in outcomes:
            track = f"worker:{self._lanes[index]}"
            attempts = self._attempts[index]
            if status != "ok":
                if self._settle_error(index, attempts, value, track):
                    retry.append(index)
                continue
            spec = self._specs[index]
            telemetry.emit_wall(
                CELL_DONE,
                track=track,
                ts=self._submitted_at[index],
                dur=telemetry.now_us() - self._submitted_at[index],
                benchmark=spec.benchmark_name,
                scheme=spec.scheme,
            )
            self._record_success(
                index,
                value,
                attempts,
                elapsed_s=cell_times.get(index),
                executed_by=executed_by,
            )
        for index in retry:
            self._submit([index])
        self._sync_in_flight()

    def _win_race(
        self, winner: Future, flight: _Flight, loser: Future
    ) -> None:
        """First result wins a speculation race: cancel the other copy
        and, when it finished too, assert the two bit-identical."""
        self._flights.pop(loser)
        cancelled = loser.cancel()
        if not cancelled and loser.done() and loser.exception() is None:
            self._assert_bit_identical(winner, loser, flight.chunk)
        if not flight.speculative:
            return
        specs = self._specs
        self.stats.speculations_won += 1
        self.telemetry.emit_wall(
            SPECULATION_WON,
            cells=[
                [specs[i].benchmark_name, specs[i].scheme]
                for i in flight.chunk
            ],
            loser_cancelled=cancelled,
        )
        self.telemetry.metrics.counter("engine.speculations_won").inc()
        if self.recorder is not None:
            self.recorder.note(
                "speculation_won",
                cells=len(flight.chunk),
                loser_cancelled=cancelled,
            )

    def _assert_bit_identical(
        self, winner: Future, loser: Future, chunk: List[int]
    ) -> None:
        """Both speculation copies finished: their per-cell results must
        be bit-identical (determinism is the contract every backend is
        tested against; a divergence here is a real bug, never noise to
        paper over)."""
        winner_map = {i: (s, v) for i, s, v in winner.result()[1]}
        loser_map = {i: (s, v) for i, s, v in loser.result()[1]}
        for index in chunk:
            w_status, w_value = winner_map.get(index, (None, None))
            l_status, l_value = loser_map.get(index, (None, None))
            if w_status == "ok" and l_status == "ok" and w_value != l_value:
                spec = self._specs[index]
                raise RuntimeError(
                    "speculative re-execution of cell "
                    f"({spec.benchmark_name!r}, {spec.scheme!r}) diverged "
                    "from the primary — results must be bit-identical "
                    "across hosts (determinism contract violated)"
                )

    def _read_reply(
        self, future: Future, flight: _Flight
    ) -> Tuple[Optional[Dict], list, Dict[int, float], Optional[str]]:
        """Unpack a landed chunk's ``(warmup, outcomes, chunk_info)``
        reply and feed its timings to the straggler estimate, the cost
        model and the telemetry merge.

        Returns ``(warmup, outcomes, cell_times, executed_by)``.  A
        reply in any other shape, or with a foreign snapshot version,
        comes from a worker on another checkout: that aborts the batch
        under every failure policy rather than being half-read.
        """
        reply = future.result()
        chunk_info = (
            reply[2] if isinstance(reply, tuple) and len(reply) == 3 else None
        )
        version = (
            chunk_info.get("v") if isinstance(chunk_info, dict) else None
        )
        if version != SNAPSHOT_VERSION:
            shape = (
                f"{len(reply)}-tuple"
                if isinstance(reply, tuple)
                else type(reply).__name__
            )
            executor = self.pool.name
            if isinstance(chunk_info, dict):
                executor = (
                    chunk_info.get("host_id")
                    or chunk_info.get("origin")
                    or executor
                )
            raise RuntimeError(
                f"chunk reply from {executor} is a {shape} with snapshot "
                f"version {version!r}; this engine expects a 3-tuple with "
                f"snapshot version {SNAPSHOT_VERSION} — the worker runs a "
                "different checkout than the parent"
            )
        warmup, outcomes, _ = reply
        chunk = flight.chunk
        per_cell = (time.perf_counter() - flight.started) / len(chunk)
        self._durations.extend([per_cell] * len(chunk))
        # Cost-model feed: worker-measured per-cell seconds and the
        # executor's identity (host#incarnation over ssh, host#pid
        # otherwise), with the parent-side chunk average as the
        # fallback for cells the worker did not time.
        cell_times = {
            int(i): float(s) for i, s in chunk_info.get("cell_times") or ()
        }
        for member in chunk:
            cell_times.setdefault(member, per_cell)
        executed_by = chunk_info.get("host_id") or chunk_info.get("origin")
        self.cost_model.observe_host(
            executed_by, len(chunk), chunk_info.get("service_s")
        )
        self._merge_worker_snapshot(chunk_info, chunk, self._submitted_at)
        return warmup, outcomes, cell_times, executed_by

    def _merge_worker_snapshot(
        self,
        chunk_info: Dict,
        chunk: List[int],
        submitted_at: Dict[int, float],
    ) -> None:
        """Fold one chunk's worker-side telemetry snapshot into the
        parent session (docs/INTERNALS.md §15).

        Unarmed-timeout counts always merge (they ride even capture-less
        replies); captured events/metrics clock-rebase onto per-worker
        and per-cell tracks with engine-lifetime monotonicity.
        """
        unarmed = int(chunk_info.get("unarmed_timeouts", 0) or 0)
        if unarmed:
            self._note_unarmed_timeout(count=unarmed)
        if not chunk_info.get("cells"):
            return
        telemetry = self.telemetry
        merged = merge_chunk_info(
            telemetry,
            chunk_info,
            submitted_at_us=min(submitted_at[i] for i in chunk),
            receipt_us=telemetry.now_us(),
            hwm=self._remote_hwm,
        )
        self.stats.remote_events_dropped += merged["dropped"]

    def _check_stragglers(self) -> None:
        """Twin each chunk running past its budget onto an idle worker
        (docs/INTERNALS.md §16)."""
        factor = self.straggler_factor
        durations = self._durations
        if factor is None or len(durations) < 3:
            return  # no robust estimate yet
        median = statistics.median(durations)
        spread = statistics.median([abs(d - median) for d in durations])
        baseline = median + 3.0 * spread
        if baseline <= 0.0:
            return
        now = time.perf_counter()
        for future, flight in list(self._flights.items()):
            if len(self._flights) >= max(1, self.pool.workers):
                return  # no idle worker to speculate into
            if flight.twin is not None:
                continue  # already twinned (or is itself a twin)
            elapsed = now - flight.started
            # Estimate-relative budget (docs/INTERNALS.md §18): a chunk
            # of cells *predicted* to run 10× longer gets a ~10× budget
            # instead of being flagged at the flat median — and
            # estimates can only extend the legacy budget, never shrink
            # it.
            budget = schedule_mod.straggler_budget(
                factor, baseline, flight.chunk, self._estimates
            )
            if elapsed > budget:
                self._speculate(future, flight, elapsed, budget)

    def _speculate(
        self, straggler: Future, flight: _Flight, elapsed: float, budget: float
    ) -> None:
        """Submit a twin of a straggling chunk; first result wins."""
        self._submit(flight.chunk, twin_of=straggler)
        specs = self._specs
        self.stats.stragglers_detected += 1
        self.telemetry.emit_wall(
            STRAGGLER_DETECTED,
            cells=[
                [specs[i].benchmark_name, specs[i].scheme]
                for i in flight.chunk
            ],
            elapsed_s=round(elapsed, 4),
            estimate_s=round(budget, 4),
        )
        self.telemetry.metrics.counter("engine.stragglers_detected").inc()
        if self.recorder is not None:
            self.recorder.note(
                "straggler_detected",
                cells=len(flight.chunk),
                elapsed_s=round(elapsed, 4),
                estimate_s=round(budget, 4),
            )


def _identity(
    spec: RunSpec, key: Optional[Tuple[str, str, str]]
) -> Dict[str, object]:
    """Flight-recorder identity of one cell (fingerprint if any)."""
    return {
        "benchmark": spec.benchmark_name,
        "scheme": spec.scheme,
        "fingerprint": None if key is None else key[2],
    }
