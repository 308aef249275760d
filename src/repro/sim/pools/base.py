"""The ``Pool`` backend contract (docs/INTERNALS.md §14).

A :class:`Pool` turns pickled **chunks** of experiment cells into
per-cell outcomes in warm worker processes
(:class:`~repro.sim.pools.local.LocalProcessPool`).  The engine speaks
only this interface, and the differential grid proves the pool
bit-identical to the engine's in-process serial path, which needs no
pool at all.

The chunk protocol is :func:`repro.sim.pools.worker.run_chunk`: a
payload of ``(cells, timeout, fault_plan)`` — extended to ``(cells,
timeout, fault_plan, capture)`` when the parent's telemetry session is
live (docs/INTERNALS.md §15) — with ``cells`` a tuple of
``(index, spec, attempt)`` triples, answered by
``(warmup, outcomes, chunk_info)`` where each outcome is
``(index, "ok", result)`` or ``(index, "error", exception)`` and
``chunk_info`` is the worker's snapshot: at minimum its executor
identity (``origin``), per-cell measured seconds (``cell_times``, which
the engine writes into each store entry's ``meta`` block), and
unarmed timeout count, plus the full clock-stamped telemetry capture
when the parent session is live (docs/INTERNALS.md §15).  Backends pass
the payload and reply through opaquely.  Any other reply shape, or a
``chunk_info["v"]`` other than :data:`repro.obs.remote.SNAPSHOT_VERSION`,
means the worker runs a different checkout: the engine aborts the batch
with a ``RuntimeError``.  Per-cell failures are *returned*, never
raised — a raised exception from a chunk means the worker itself died.

Every pool fans cells out beyond the calling thread: the engine routes
eligible cells through :meth:`Pool.submit_chunk`, pre-builds the
batch's benchmarks in every worker at spawn (``worker_warmup``
telemetry), and on a dead worker (any of
:data:`~repro.sim.pools.local.BROKEN_EXCEPTIONS`) restarts the pool
and resubmits the interrupted cells, up to ``max_pool_rebuilds`` times
before degrading to the in-process serial path (which streams
simulation telemetry and can arm SIGALRM timeouts — things a worker
boundary hides).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Sequence, Tuple

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
    """A pool was used while closed or not started (analogue of
    ``BrokenProcessPool``); the engine treats it as a crash and runs
    its rebuild/degrade machinery."""


class Pool:
    """Abstract execution backend; see the module docstring for the
    contract.  :func:`repro.sim.pools.make_pool` builds the concrete
    one from a spec."""

    #: Short backend name, also the spec prefix (``local``); surfaced
    #: in telemetry events.
    name: str = "abstract"
    #: Worker slots (parallel width).
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
        :data:`~repro.sim.pools.local.BROKEN_EXCEPTIONS` (or sets it on
        the future) when the pool is dead.
        """
        raise NotImplementedError

    def close(self, fail_fast: bool = False) -> None:
        """Shut workers down (idempotent; :meth:`start` revives the pool).

        ``fail_fast`` drops pending work without waiting — used when the
        pool is suspect (crash recovery, batch abort, interpreter
        teardown).
        """
        raise NotImplementedError

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

