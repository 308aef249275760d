"""Parallel experiment engine: fan experiment cells out across worker
processes.

Every exhibit, bench, and CLI command ultimately needs the same thing: a
batch of ``(benchmark, scheme, config)`` cells turned into
:class:`~repro.sim.results.RunResult` bundles.  :class:`Engine` is the one
entry point for that.  It layers three mechanisms under a single
``run(cells)`` call:

1. an **in-process memory cache** (shared, module-level) so different
   exhibits in one process reuse the same runs — the role the old private
   ``_CACHE`` dict in ``repro.sim.experiment`` used to play;
2. a **persistent on-disk store** (:class:`repro.sim.store.ResultStore`)
   so *fresh processes* — another CLI invocation, another pytest
   worker — reuse runs too;
3. an execution **pool** (:class:`repro.sim.pools.local.LocalProcessPool`,
   when ``jobs > 1``) with per-cell timeout and bounded retry for the
   cells that actually have to simulate.

Results are deterministic: a cell's outcome depends only on its
:class:`~repro.sim.results.RunSpec`, never on scheduling or location, so
the process pool is bit-identical to serial (tests/test_backends.py).

Execution width (docs/INTERNALS.md §14): ``jobs`` is the one setting.
``jobs=1`` builds no pool: every cell runs in the calling process.
``jobs=N`` builds a ``LocalProcessPool(N)`` on first use, which is
**persistent and warm**
(docs/INTERNALS.md §13): the first parallel batch spawns it with an
initializer that pre-builds the batch's benchmarks (method runners
compile into each worker's process-wide blockjit code cache on first
execution) — and later batches on the same engine reuse the
live workers (``pool_reused`` telemetry) instead of paying spawn +
warm-up again.  Cells are submitted in **chunks**: one pickled payload
carries several cells plus the shared timeout/fault-plan, and workers
memoise built benchmarks by name, so a 3-scheme sweep builds each
benchmark once per worker rather than once per cell.  Cacheable cells
that differ only in scheme form a **lockstep group**, which the driver
runs as lanes of one VM — serially, or in one chunk — and re-runs cell
by cell if it fails (docs/INTERNALS.md §13).  Call
:meth:`Engine.close` (or use the engine as a context manager) to shut
the pool down; a dropped engine cleans up in ``__del__``.

Graceful degradation (docs/INTERNALS.md §11): ``failure_policy``
selects what a cell that exhausts its retry budget does to the batch —
``"raise"`` (default, legacy) aborts with :class:`CellExecutionError`,
while ``"skip"`` and ``"partial"`` record a per-cell failure and keep
serving the surviving cells (``"partial"`` additionally raises
:class:`BatchExecutionError` when *no* cell succeeded).  A worker death
(any exception in :data:`~repro.sim.pools.local.BROKEN_EXCEPTIONS`) is
recovered by restarting the pool and resubmitting the interrupted
cells; after ``max_pool_rebuilds`` the engine degrades further to
in-process serial execution.
Seeded fault injection for all of these paths lives in
:mod:`repro.faults`.

Cells carrying live objects (an explicit ``policy`` instance, a
``preload_database``, a prebuilt benchmark) are executed serially in the
parent process — they are not guaranteed picklable and are never cached.
"""

from __future__ import annotations

import time
import traceback as traceback_mod
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults import FaultPlan, corrupt_file
from repro.obs.events import (
    BATCH_DEGRADED,
    CELL_DONE,
    CELL_FAILED,
    CELL_START,
    DEFAULT_CELL_EVENT_CAP,
    MEMORY_HIT,
    NULL_TELEMETRY,
    POOL_REUSED,
    POOL_SPAWNED,
    PROGRESS,
    RETRY,
    SCHEDULE_PLANNED,
    STORE_HIT,
    TIMEOUT,
    TIMEOUT_DISABLED,
    WORKER_CRASH,
    WORKER_WARMUP,
)
from repro.obs.recorder import FlightRecorder
from repro.sim.options import check_at_least
from repro.sim.pools.base import CellTimeout
from repro.sim.results import RunResult, RunSpec
from repro.sim.store import META_VERSION, ResultStore

if TYPE_CHECKING:
    from repro.sim.pools.local import LocalProcessPool

# The execution layer — the pool worker (and through it the driver, the
# kernels and the policies), the pool classes, the chunk partition and
# worker telemetry — is imported where a cell first executes
# or a pool starts, never at module import: a batch the caches answer
# whole never loads the simulator (docs/INTERNALS.md, "Import layering").

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
    #: Pool rounds partitioned into chunks, and their summed wall-clock
    #: seconds.
    rounds_planned: int = 0
    actual_makespan_s: float = 0.0
    #: Always 0 since LPT planning was retired (docs/INTERNALS.md §18);
    #: kept because perf/tracing.py reads them.
    rounds_lpt: int = 0
    predicted_makespan_s: float = 0.0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


@dataclass
class CellProgress:
    """One progress-callback notification.

    ``in_flight`` counts cells currently submitted to the pool and
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
    """Internal signal: the pool died; these cells were in flight."""

    def __init__(self, interrupted: List[int], cause: BaseException):
        super().__init__(f"pool broken with {len(interrupted)} cells in flight")
        self.interrupted = interrupted
        self.cause = cause


@dataclass(eq=False)
class _Flight:
    """One chunk submitted to the pool and not yet settled."""

    chunk: List[int]
    #: ``time.perf_counter()`` at submission (the parent-side timing
    #: fallback for cells the worker did not time).
    started: float


class Engine:
    """Executes batches of :class:`RunSpec` cells with caching + fan-out.

    Every execution setting is a keyword here, and only here;
    :func:`repro.sim.experiment.make_engine` maps an
    :class:`~repro.sim.options.ExecutionOptions` bundle (the CLI's
    flags) onto these keywords.

    Parameters
    ----------
    jobs:
        Worker processes for cells that must simulate, the one
        execution-width setting.  ``1`` (default) builds no pool and
        runs everything in the calling process; ``N > 1`` builds a
        :class:`~repro.sim.pools.local.LocalProcessPool` of ``N``
        workers on first use.  The pool pre-builds the first batch's
        benchmarks in every worker at spawn (docs/INTERNALS.md §13;
        ``worker_warmup`` telemetry); later batches reuse the live pool
        and the workers' memoised benchmarks.
    pool:
        A pool object to run on in place of the one ``jobs`` would
        build (so not together with ``jobs``); its ``workers`` become
        ``jobs``.  This is the seam that lets tests substitute stub
        pools (the surface is
        :class:`~repro.sim.pools.local.LocalProcessPool`'s).  A string
        is a ``TypeError``: backend specs were retired for ``jobs``
        (docs/INTERNALS.md §14).
    store:
        A :class:`ResultStore` for cross-process persistence, or ``None``
        to keep results in memory only.  Each simulated result is
        written through as soon as its cell settles, so a killed batch
        keeps every cell it finished and a re-run of the same cells
        simulates only the rest (docs/INTERNALS.md §16).
    use_cache:
        When False, both cache layers are bypassed *in both directions*:
        nothing is read, nothing is written, every cell simulates.
    cell_timeout:
        Per-cell wall-clock budget in seconds (None = unbounded).  A
        timed-out cell is retried like any other failure.
    max_retries:
        Extra attempts per cell after the first failure (at least 0).
        Retries are resubmitted at once, without backoff.
    failure_policy:
        ``"raise"`` (default): a cell that exhausts its retries aborts
        the batch with :class:`CellExecutionError` — the legacy
        contract.  ``"skip"``: the failure is recorded as a
        :class:`CellOutcome` and the batch keeps going; ``run()``
        leaves ``None`` in that cell's ``values()`` slot.  ``"partial"``:
        like ``"skip"``, but a batch in which *every* cell failed raises
        :class:`BatchExecutionError`.
    max_pool_rebuilds:
        How many times a batch may rebuild a broken pool (worker
        crash recovery) before degrading to in-process serial execution
        for the interrupted cells (default 3; must be at least 0).
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
        events into the same session.  Cells that run through the pool
        capture their tuning events worker-side instead
        (bounded per cell by
        :data:`repro.obs.events.DEFAULT_CELL_EVENT_CAP`; events beyond
        it are counted in ``stats.remote_events_dropped``), ship them back
        on the chunk reply, and the engine clock-rebases and merges
        them into this session on per-worker/per-cell tracks — so one
        unified trace covers any ``jobs`` (docs/INTERNALS.md §15).
        The capture is requested only when this session is live;
        telemetry never changes what a cell computes.
    recorder:
        Optional :class:`repro.obs.FlightRecorder` writing the per-run
        JSONL manifest (batch config, per-cell outcomes, degradation
        notes).  Defaults to :meth:`FlightRecorder.from_env`, i.e. a
        recorder under ``$REPRO_FLIGHT_DIR`` when that is set.
    chunk_size:
        Cells per pool submission (at least 1).  ``None`` (default)
        picks ``ceil(cells / (workers * 4))`` capped at 8 — enough
        chunks to keep every worker busy for several rounds while
        amortising pickling, without collapsing the crash-retry
        granularity of small batches
        (:func:`repro.sim.schedule.plan_round`).  Retries are always
        resubmitted as single-cell chunks.
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
        pool: Optional["LocalProcessPool"] = None,
        recorder: Optional[FlightRecorder] = None,
    ):
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, got "
                f"{failure_policy!r}"
            )
        check_at_least("jobs", jobs, 1)
        check_at_least("max_retries", max_retries, 0)
        check_at_least("chunk_size", chunk_size, 1)
        check_at_least("max_pool_rebuilds", max_pool_rebuilds, 0)
        if isinstance(pool, str):
            raise TypeError(
                f"Engine(pool={pool!r}): pool takes a pool object; set "
                "the number of worker processes with jobs=N (backend "
                "specs were retired, docs/INTERNALS.md §14)"
            )
        if pool is not None and jobs != 1:
            raise TypeError("pass jobs or pool, not both")
        self._pool = pool
        self.jobs = jobs if pool is None else pool.workers
        self.store = store
        self.use_cache = use_cache
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.failure_policy = failure_policy
        self.max_pool_rebuilds = max_pool_rebuilds
        self.fault_plan = fault_plan
        self.progress = progress
        self.runner = runner
        self._memory = (
            _MEMORY_CACHE if memory_cache is None else memory_cache
        )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.chunk_size = chunk_size
        self.recorder = (
            recorder if recorder is not None else FlightRecorder.from_env()
        )
        self.stats = EngineStats()
        self._unarmed_warned = False
        #: Per-track high-water marks for clock-rebased worker events;
        #: engine-lifetime so merged tracks stay monotone across batches.
        self._remote_hwm: Dict[str, float] = {}
        self._in_flight = 0
        self._run_t0 = time.perf_counter()
        #: The in-flight table of the current pool round.
        self._flights: Dict[Future, _Flight] = {}
        #: The lockstep group of each cell of the current pool round.
        self._group_of: Dict[int, List[int]] = {}

    @property
    def pool(self) -> Optional["LocalProcessPool"]:
        """The worker pool, built on first use when ``jobs > 1`` (None
        for ``jobs=1``, which runs every cell in-process).

        Building it imports the pool class and, through the worker
        module, the simulator — so the workers fork from a parent that
        has it loaded.
        """
        if self._pool is None and self.jobs > 1:
            from repro.sim.pools.local import LocalProcessPool

            self._pool = LocalProcessPool(self.jobs)
        return self._pool

    @property
    def backend(self) -> str:
        """Where cells run, for telemetry and the run manifest:
        ``"serial"``, or the pool's ``name`` (read without building it).
        """
        if self._pool is not None:
            return self._pool.name
        return "local" if self.jobs > 1 else "serial"

    # -- public API --------------------------------------------------------

    def run(self, cells: Sequence[RunSpec]) -> "BatchResult":
        """Resolve every cell (cache, store, or execution) into a
        :class:`BatchResult` of per-cell :class:`CellOutcome`\\ s.

        ``run(cells).values()`` gives the old list-of-results shape.
        Under ``failure_policy="skip"``/``"partial"`` a failed cell's
        ``values()`` slot holds ``None``.
        """
        specs = list(cells)
        for spec in specs:
            spec.config.check_budgets()
        # One fingerprint per cell per batch: lookup, de-duplication,
        # store writes and the flight recorder all share these keys.
        keys = [
            spec.cache_key() if spec.cacheable else None for spec in specs
        ]
        recorder = self.recorder
        if recorder is not None:
            recorder.begin_batch(
                backend=self.backend,
                workers=self.jobs,
                failure_policy=self.failure_policy,
                cell_timeout=self.cell_timeout,
                max_retries=self.max_retries,
                fault_plan=self.fault_plan,
                cells=[_identity(s, k) for s, k in zip(specs, keys)],
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
        return batch

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
            self._execute_pending(pending)
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
        """Shut down the worker pool (idempotent, exception-safe).

        Waits for idle shutdown; the engine stays usable — the next
        parallel batch simply starts (and re-warms) the pool again.
        Safe on a half-constructed engine (a constructor that raised
        before assigning the pool) and on a pool whose state is
        already broken — e.g. closing after a degrade-to-serial: a
        failing idle shutdown is retried fail-fast, and a pool that
        will not even do that is abandoned rather than propagated.
        """
        pool = getattr(self, "_pool", None)
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
        pool = getattr(self, "_pool", None)
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
        group: Optional[str] = None,
    ) -> None:
        key = self._keys[index]
        if not self._cell_cacheable(key):
            return
        self._memory[key] = result
        if self.store is None:
            return
        # Written through before the cell settles: a killed batch keeps
        # every cell it finished, and a re-run serves them from the
        # store (docs/INTERNALS.md §16).  Measured runtime and executor
        # identity ride along as the entry's meta block, for setup
        # attribution and diagnosis; a lockstep group's seconds are its
        # first cell's, and every member names the group.
        meta = None
        if elapsed_s is not None:
            meta = {
                "v": META_VERSION,
                "elapsed_s": round(float(elapsed_s), 6),
                "executed_by": executed_by,
            }
            if group is not None:
                meta["group"] = group
        path = self.store.put(*key, result, meta)
        plan = self.fault_plan
        if plan is not None and plan.decide("store_corrupt", key):
            corrupt_file(path)

    def _finish(self, index: int, outcome: CellOutcome) -> None:
        """Settle cell ``index`` for good: record its outcome, write its
        flight-recorder line, and notify progress."""
        self._outcomes[index] = outcome
        if self.recorder is not None:
            # The fingerprint ties the cell record to its store entry.
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
        group: Optional[str] = None,
    ) -> None:
        spec = self._specs[index]
        self.stats.simulations += 1
        self.telemetry.metrics.counter("engine.simulations").inc()
        self._record(index, result, elapsed_s, executed_by, group)
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
        elif isinstance(error, _PoolBroken) or (
            self._pool is not None and self._pool_error(error)
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

    # -- execution ---------------------------------------------------------

    def _execute_pending(self, pending: List[int]) -> None:
        pool_eligible = [
            i for i in pending if self._pool_eligible(self._specs[i])
        ]
        # A single eligible cell normally runs serially (cheaper, and it
        # streams simulation telemetry directly) — unless the parent's
        # telemetry session is live, in which case routing through the
        # pool exercises the same capture/merge path a multi-cell batch
        # uses, keeping traces uniform across batch sizes.
        serial = pending
        if self.pool is not None and (
            len(pool_eligible) > 1
            or (pool_eligible and self.telemetry.enabled)
        ):
            self._run_pool(pool_eligible)
            in_pool = set(pool_eligible)
            serial = [i for i in pending if i not in in_pool]
        for group in self._groups(serial):
            self._run_group(group)

    def _pool_eligible(self, spec: RunSpec) -> bool:
        return (
            self.runner is None
            and isinstance(spec.benchmark, str)
            and spec.policy is None
            and spec.preload_database is None
        )

    def _groups(self, indices: List[int]) -> List[List[int]]:
        """``indices`` split into lockstep groups, each at its first
        member's place (docs/INTERNALS.md §13).

        A group is the cells that share a benchmark and a config
        fingerprint, run on the fast kernel, are cacheable and differ
        only in scheme; the driver runs them as lanes of one VM.  A live
        telemetry session keeps every cell alone, so each streams (or
        captures) its own timeline.
        """
        if self.telemetry.enabled:
            return [[index] for index in indices]
        groups: List[List[int]] = []
        by_key: Dict[Tuple[str, str], List[int]] = {}
        for index in indices:
            spec, key = self._specs[index], self._keys[index]
            if not (
                self._pool_eligible(spec)
                and self._cell_cacheable(key)
                and spec.config.sim_kernel == "fast"
            ):
                groups.append([index])
                continue
            group = by_key.get((key[0], key[2]))
            if group is None:
                group = by_key[(key[0], key[2])] = []
                groups.append(group)
            group.append(index)
        return groups

    def _run_group(self, group: List[int]) -> None:
        """Run one group in the calling process: in lockstep, or — for
        one cell, or after the lockstep run failed — cell by cell."""
        if len(group) > 1 and self._run_lockstep(group):
            return
        for index in group:
            self._run_serial(index)

    def _run_lockstep(self, group: List[int]) -> bool:
        """One lockstep attempt of ``group``; False if it failed (its
        cells then run solo, with their own retries)."""
        from repro.obs.remote import worker_origin
        from repro.sim.pools.worker import group_name, run_group

        specs = [self._specs[index] for index in group]
        started = time.perf_counter()
        try:
            results = run_group(
                [(spec, 1) for spec in specs],
                self.cell_timeout,
                self.fault_plan,
                on_unarmed=self._note_unarmed_timeout,
            )
        except Exception as error:  # noqa: BLE001 — its cells re-run solo
            self._note_lockstep_failure(group_name(specs), repr(error))
            return False
        elapsed_s = time.perf_counter() - started
        name = group_name(specs)
        for position, (index, result) in enumerate(zip(group, results)):
            # The group's seconds go to its first cell, so summing
            # ``elapsed_s`` over cells still gives the time spent.
            self._record_success(
                index, result, 1,
                elapsed_s=elapsed_s if position == 0 else 0.0,
                executed_by=worker_origin(), group=name,
            )
        return True

    def _note_lockstep_failure(self, group: str, error: str) -> None:
        """Leave a failed lockstep group in the flight recorder; its
        cells re-run solo and settle with their own outcomes."""
        if self.recorder is not None:
            self.recorder.note(
                "lockstep_failed", group=group, error=error[:200]
            )

    def _run_serial(self, index: int) -> None:
        from repro.obs.remote import worker_origin
        from repro.sim.pools.worker import inject_cell_faults, run_with_alarm

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
        and the telemetry lanes stay stable.
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
                to_run = self._survivors_of_crash(broken)
                if not to_run:
                    return
                rebuilds += 1
                self.stats.pool_rebuilds += 1
                if rebuilds > self.max_pool_rebuilds:
                    # The pool keeps dying: degrade to in-process
                    # serial execution for whatever is left.
                    # Worker-crash injection never fires in the parent
                    # process, and a genuinely poisoned environment at
                    # least fails with an attributable per-cell error.
                    if self.recorder is not None:
                        self.recorder.note(
                            "degraded_to_serial",
                            backend=self.pool.name,
                            rebuilds=rebuilds,
                            cells=len(to_run),
                        )
                    for group in self._groups(to_run):
                        self._run_group(group)
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

    def _ensure_pool(self, indices: List[int]) -> "LocalProcessPool":
        """The live pool, starting (and warming) it if needed."""
        telemetry = self.telemetry
        pool = self.pool
        warm: Dict[str, None] = {}
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

    def _run_round(self, indices: List[int]) -> None:
        """One round against the persistent pool; raises
        :class:`_PoolBroken` on worker death.

        Cells go out in chunks (shared timeout/plan payload, per-cell
        outcomes back) and every submitted chunk sits in the in-flight
        table ``{future: _Flight}`` until it lands; retries are
        resubmitted as single-cell chunks so a flaky cell cannot hold
        healthy chunk-mates hostage.  Any failure path discards the
        pool fail-fast — it may hold in-flight work of a poisoned
        batch and must not leak into the next one.
        """
        from repro.sim import schedule as schedule_mod

        telemetry = self.telemetry
        pool = self._ensure_pool(indices)
        groups = self._groups(indices)
        self._group_of = {index: group for group in groups for index in group}
        indices = [index for group in groups for index in group]
        # Through the module: perf/tracing.py wraps this binding.
        chunks = schedule_mod.plan_round(
            indices, pool.workers, self.chunk_size, groups
        )
        self.stats.rounds_planned += 1
        round_t0 = time.perf_counter()
        self._round = indices
        self._flights = {}
        # Worker-side telemetry capture is requested only when the
        # parent session is live, so the NULL_TELEMETRY default keeps
        # the 3-field payload on the wire.
        self._capture = (
            {"max_events": DEFAULT_CELL_EVENT_CAP}
            if telemetry.enabled
            else None
        )
        try:
            for chunk in chunks:
                self._submit(chunk)
            while self._flights:
                finished, _ = wait(
                    list(self._flights), return_when=FIRST_COMPLETED
                )
                for future in finished:
                    self._land(future)
        except BaseException:
            # Fatal exits (CellExecutionError, _PoolBroken) must not sit
            # waiting for in-flight cells of a poisoned batch, and the
            # pool itself is suspect: drop it fail-fast.  The clean
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
            chunks=len(chunks),
            cells=len(indices),
            actual_makespan_s=round(actual_s, 4),
        )
        telemetry.metrics.counter("engine.rounds_planned").inc()

    def _submit(self, chunk: List[int]) -> None:
        """Put one chunk in flight: a first submission or a single-cell
        retry."""
        from repro.sim.pools.local import BROKEN_EXCEPTIONS

        specs = self._specs
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
        sizes = self._group_sizes(chunk)
        if self._capture is not None:
            payload = payload + (self._capture,)
        elif any(size > 1 for size in sizes):
            payload = payload + (None, sizes)
        try:
            future = self.pool.submit_chunk(payload)
        except BROKEN_EXCEPTIONS as error:
            raise self._broken(error) from error
        self._flights[future] = _Flight(list(chunk), time.perf_counter())
        self._sync_in_flight()

    def _group_sizes(self, chunk: List[int]) -> Tuple[int, ...]:
        """The sizes of the lockstep groups ``chunk`` holds, in order (a
        retry's single-cell chunk holds a group of one)."""
        sizes: List[int] = []
        previous = None
        for index in chunk:
            group = self._group_of[index]
            if group is previous:
                sizes[-1] += 1
            else:
                sizes.append(1)
            previous = group
        return tuple(sizes)

    def _sync_in_flight(self) -> None:
        self._in_flight = sum(
            len(flight.chunk) for flight in self._flights.values()
        )

    def _broken(self, cause: BaseException) -> _PoolBroken:
        """Empty the in-flight table into a :class:`_PoolBroken` naming
        every cell of the round not settled yet: in flight, awaiting a
        retry, or — when the pool died mid-submission — never
        submitted."""
        self._flights = {}
        self._in_flight = 0
        return _PoolBroken(
            [i for i in self._round if self._outcomes[i] is None], cause
        )

    @staticmethod
    def _pool_error(error: BaseException) -> bool:
        """Whether ``error`` says the process pool itself broke.  Only
        asked with a pool, so a serial engine never loads the pool
        module."""
        from repro.sim.pools.local import BROKEN_EXCEPTIONS

        return isinstance(error, BROKEN_EXCEPTIONS)

    def _land(self, future: Future) -> None:
        """Settle one finished chunk: each of its cells succeeds, is
        retried, or fails for good."""
        flight = self._flights.pop(future)
        error = future.exception()
        if self._pool_error(error):
            raise self._broken(error) from error
        chunk = flight.chunk
        if error is None:
            warmup, outcomes, cell_times, executed_by, groups = (
                self._read_reply(future, flight)
            )
        else:
            # The chunk itself failed (not one of its cells — e.g. an
            # unpicklable payload): feed the error to every member
            # through the normal retry machinery.
            warmup, executed_by, cell_times, groups = None, None, {}, {}
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
                group=groups.get(index),
            )
        for index in retry:
            self._submit([index])
        self._sync_in_flight()

    def _read_reply(
        self, future: Future, flight: _Flight
    ) -> Tuple[
        Optional[Dict], list, Dict[int, float], Optional[str], Dict[int, str]
    ]:
        """Unpack a landed chunk's ``(warmup, outcomes, chunk_info)``
        reply and feed its timings to the store meta and the telemetry
        merge.

        Returns ``(warmup, outcomes, cell_times, executed_by, groups)``,
        ``groups`` naming the lockstep group of each cell that ran in
        one.  A reply in any other shape, or with a foreign snapshot
        version, comes from a worker on another checkout: that aborts
        the batch under every failure policy rather than being
        half-read.
        """
        from repro.obs.remote import SNAPSHOT_VERSION

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
                executor = chunk_info.get("origin") or executor
            raise RuntimeError(
                f"chunk reply from {executor} is a {shape} with snapshot "
                f"version {version!r}; this engine expects a 3-tuple with "
                f"snapshot version {SNAPSHOT_VERSION} — the worker runs a "
                "different checkout than the parent"
            )
        warmup, outcomes, _ = reply
        chunk = flight.chunk
        per_cell = (time.perf_counter() - flight.started) / len(chunk)
        # Store-meta feed: worker-measured per-cell seconds and the
        # executor's ``host#pid`` identity, with the parent-side chunk
        # average as the fallback for cells the worker did not time.
        cell_times = {
            int(i): float(s) for i, s in chunk_info.get("cell_times") or ()
        }
        for member in chunk:
            cell_times.setdefault(member, per_cell)
        executed_by = chunk_info.get("origin")
        groups = {int(i): name for i, name in chunk_info.get("groups") or ()}
        for group, error in chunk_info.get("lockstep_failures") or ():
            self._note_lockstep_failure(group, error)
        self._merge_worker_snapshot(chunk_info, chunk, self._submitted_at)
        return warmup, outcomes, cell_times, executed_by, groups

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
        from repro.obs.remote import merge_chunk_info

        telemetry = self.telemetry
        merged = merge_chunk_info(
            telemetry,
            chunk_info,
            submitted_at_us=min(submitted_at[i] for i in chunk),
            receipt_us=telemetry.now_us(),
            hwm=self._remote_hwm,
        )
        self.stats.remote_events_dropped += merged["dropped"]


def _identity(
    spec: RunSpec, key: Optional[Tuple[str, str, str]]
) -> Dict[str, object]:
    """Flight-recorder identity of one cell (fingerprint if any)."""
    return {
        "benchmark": spec.benchmark_name,
        "scheme": spec.scheme,
        "fingerprint": None if key is None else key[2],
    }
