"""The ``Pool`` backend contract (docs/INTERNALS.md §14).

A :class:`Pool` turns pickled **chunks** of experiment cells into
per-cell outcomes, somewhere — in the calling process
(:class:`~repro.sim.pools.local.SerialPool`), in warm local worker
processes (:class:`~repro.sim.pools.local.LocalProcessPool`), or on a
fleet of remote hosts (:class:`~repro.sim.pools.ssh.SSHPool`).  The
engine never cares which: it speaks only this interface, and the
differential grid proves every backend bit-identical to serial.

The chunk protocol is the one the engine has always used internally
(:func:`repro.sim.pools.worker.run_chunk`): a payload of
``(cells, timeout, fault_plan)`` — extended to ``(cells, timeout,
fault_plan, capture)`` when the parent's telemetry session is live
(docs/INTERNALS.md §15) — with ``cells`` a tuple of
``(index, spec, attempt)`` triples, answered by
``(warmup, outcomes, chunk_info)`` where each outcome is
``(index, "ok", result)`` or ``(index, "error", exception)`` and
``chunk_info`` is the worker's snapshot: at minimum its executor
identity, per-cell measured seconds (``cell_times``), and unarmed
timeout count — the scheduler's cost model feeds on these — plus the
full clock-stamped telemetry capture when the parent session is live
(docs/INTERNALS.md §15).  Backends pass the payload and reply through
opaquely.  Any other reply shape, or a ``chunk_info["v"]`` other than
:data:`repro.obs.remote.SNAPSHOT_VERSION`, means the worker runs a
different checkout: the engine aborts the batch with a
``RuntimeError``.  Per-cell failures
are *returned*, never raised — a raised exception from a chunk means
the transport or the worker itself died.

Capability flags tell the engine which degradation semantics apply:

``parallel``
    The pool fans cells out beyond the calling thread; the engine
    routes eligible cells through :meth:`submit_chunk`.  A
    non-parallel pool makes the engine run cells on its in-process
    serial path instead (which streams simulation telemetry and can
    arm SIGALRM timeouts — things a worker boundary hides).
``rebuild``
    A dead worker (``broken_exceptions``) can be recovered by
    :meth:`rebuild`; the engine retries interrupted cells against the
    rebuilt pool up to ``max_pool_rebuilds`` times before degrading to
    serial.  Pools without this capability degrade straight to serial
    on the first crash.
``remote``
    Results cross a host boundary; the engine knows worker-side
    telemetry and process-global caches (blockjit) are invisible.
``warm_start``
    :meth:`start`'s ``warm_benchmarks`` actually pre-builds benchmarks
    in the workers (reported via ``worker_warmup`` telemetry riding the
    first chunk each worker answers).
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: One submitted cell: (batch index, RunSpec, attempt number).
ChunkCell = Tuple[int, object, int]
#: What travels to a worker: ``(cells, timeout, fault_plan)``, plus an
#: optional trailing telemetry-capture spec when the parent session is
#: live (see the module docstring; workers accept both arities).
ChunkPayload = Tuple[object, ...]


class CellTimeout(Exception):
    """A cell exceeded the engine's per-cell wall-clock budget.

    Defined here (not in the engine) because workers raise it on the
    far side of a pool boundary; ``repro.sim.engine`` re-exports it.
    """


class PoolBrokenError(RuntimeError):
    """A pool's transport or worker died (analogue of BrokenProcessPool).

    Backends whose native broken-worker signal is not an exception type
    of their own (e.g. an SSH pipe closing) raise this; the engine
    treats anything in :attr:`Pool.broken_exceptions` as a crash and
    runs its rebuild/degrade machinery.
    """


class HostDownError(RuntimeError):
    """One *host* of a multi-host pool died; the pool itself survives.

    Deliberately **not** in :attr:`Pool.broken_exceptions`: a chunk
    future carrying this error means "these cells were interrupted, but
    there is capacity left — resubmit them" (docs/INTERNALS.md §16).
    The engine reroutes the chunk's cells to the surviving hosts
    through its ordinary per-cell retry machinery instead of tearing
    the whole pool down, and counts them in ``stats.cells_rerouted``.
    Only when the *last* host dies does the pool fall back to
    :class:`PoolBrokenError` and the rebuild/degrade path.
    """

    def __init__(self, host: str, cause: BaseException):
        super().__init__(f"pool host {host!r} went down: {cause!r}")
        self.host = host
        self.cause = cause


@dataclass(frozen=True)
class PoolCapabilities:
    """What degradation/warm-up semantics a backend supports."""

    parallel: bool = True
    rebuild: bool = True
    remote: bool = False
    warm_start: bool = True


class Pool:
    """Abstract execution backend; see the module docstring for the
    contract.  Concrete pools register under a spec prefix via
    :func:`repro.sim.pools.register_backend`."""

    #: Short backend name, also the spec prefix (``local``, ``serial``,
    #: ``ssh``); surfaced in telemetry events.
    name: str = "abstract"
    capabilities: PoolCapabilities = PoolCapabilities()
    #: Exception types (raised from :meth:`submit_chunk` or set on its
    #: future) that mean "the pool died", not "the cell failed".
    broken_exceptions: Tuple[type, ...] = (PoolBrokenError,)

    #: Worker slots (parallel width).  1 for serial.
    workers: int = 1

    def start(self, warm_benchmarks: Sequence[str] = ()) -> bool:
        """Spawn workers if not already live; True when a spawn happened.

        Idempotent: a live pool returns False and ignores
        ``warm_benchmarks`` (warm-up happens at spawn, once per worker).
        """
        raise NotImplementedError

    def submit_chunk(self, payload: ChunkPayload) -> "Future":
        """Submit one chunk; the future resolves to ``(warmup, outcomes,
        chunk_info)`` (``chunk_info`` is the worker's snapshot).

        The pool must be started.  Raises one of
        :attr:`broken_exceptions` (or sets it on the future) when the
        pool is dead.
        """
        raise NotImplementedError

    def rebuild(self, warm_benchmarks: Sequence[str] = ()) -> None:
        """Replace dead workers with fresh ones (crash recovery).

        Only meaningful when ``capabilities.rebuild``; the default
        tears everything down and starts again.
        """
        self.close(fail_fast=True)
        self.start(warm_benchmarks)

    def close(self, fail_fast: bool = False) -> None:
        """Shut workers down (idempotent; :meth:`start` revives the pool).

        ``fail_fast`` drops pending work without waiting — used when the
        pool is suspect (crash recovery, batch abort, interpreter
        teardown).
        """
        raise NotImplementedError

    # -- health (docs/INTERNALS.md §16) -------------------------------------

    def report_health(self) -> Dict[str, Dict[str, object]]:
        """Per-host health snapshot, keyed by host name.

        Multi-host backends report one entry per host with at least
        ``state`` (``"closed"``/``"open"``/``"half_open"`` circuit
        state), ``live_workers``, ``consecutive_failures``, and
        ``incarnation`` (how many times the host's workers have been
        (re)spawned).  Single-process backends have no host granularity
        and return ``{}`` — the engine treats that as "always healthy".
        """
        return {}

    def host_slots(self) -> Dict[str, int]:
        """Live execution slots keyed by executor identity.

        The scheduler (docs/INTERNALS.md §18) matches these identities
        against the cost model's per-host speed EWMAs to weight chunk
        sizes.  Multi-host backends key by ``host#incarnation`` (the
        same identity their workers stamp into chunk replies) and
        report only hosts whose circuit is currently serving; the
        default is one anonymous entry covering the whole pool, which
        the cost model treats as homogeneous.
        """
        return {self.name: max(1, self.workers)}

    def drain_health_events(self) -> List[Tuple[str, Dict[str, object]]]:
        """Health transitions since the last drain, oldest first.

        Each entry is ``(event_name, fields)`` with ``event_name`` one
        of :data:`repro.obs.events.HOST_DOWN` /
        :data:`~repro.obs.events.HOST_RECOVERED` /
        :data:`~repro.obs.events.CIRCUIT_OPEN`.  The engine drains this
        buffer after every pool round and forwards the transitions into
        telemetry, stats, and the flight recorder — the pool itself
        never needs a telemetry handle.
        """
        return []

    @property
    def alive(self) -> bool:
        """True between a successful :meth:`start` and :meth:`close`."""
        raise NotImplementedError

    def __enter__(self) -> "Pool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "alive" if self.alive else "closed"
        return f"{type(self).__name__}(workers={self.workers}, {state})"


def completed_future(value) -> "Future":
    """A pre-resolved future (serial pools answer synchronously)."""
    future: Future = Future()
    future.set_result(value)
    return future
