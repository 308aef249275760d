"""The local process pool an ``Engine(jobs=N)`` runs its cells on."""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence, Tuple

from repro.sim.pools import worker as worker_mod
from repro.sim.pools.base import ChunkPayload, PoolBrokenError

#: Exception types (raised from :meth:`LocalProcessPool.submit_chunk`
#: or set on its future) that mean "the pool died", not "the cell
#: failed".
BROKEN_EXCEPTIONS: Tuple[type, ...] = (BrokenProcessPool, PoolBrokenError)


class LocalProcessPool:
    """Warm persistent ``ProcessPoolExecutor`` of ``workers`` processes
    (docs/INTERNALS.md §13–14).

    The engine builds one on first use when ``jobs > 1`` and uses only
    ``name``, ``workers``, :meth:`start`, :meth:`submit_chunk`,
    :meth:`close` and :attr:`alive`, so a test may pass any object that
    has them as ``Engine(pool=...)``.  It turns
    pickled **chunks** of cells (the protocol of
    :mod:`repro.sim.pools.base`) into per-cell outcomes, and must match
    the engine's in-process path bit for bit.  Workers survive across
    batches; the spawn-time initializer pre-builds the batch's
    benchmarks (``worker_warmup`` telemetry).  On a dead worker (any of
    :data:`BROKEN_EXCEPTIONS`) the engine restarts the pool and
    resubmits the interrupted cells, up to ``max_pool_rebuilds`` times,
    before degrading to the in-process path (which streams simulation
    telemetry and can arm SIGALRM timeouts — things a worker boundary
    hides).
    """

    #: Surfaced in telemetry events and as ``Engine.backend``.
    name = "local"

    def __init__(self, workers: int = 2):
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Benchmarks the live executor's initializer pre-built.
        self.warmed: Tuple[str, ...] = ()

    def start(self, warm_benchmarks: Sequence[str] = ()) -> bool:
        """Spawn workers if not already live; True when a spawn happened.

        Idempotent: a live pool returns False and ignores
        ``warm_benchmarks`` (warm-up happens at spawn, once per worker).
        """
        if self._executor is not None:
            return False
        self.warmed = tuple(dict.fromkeys(warm_benchmarks))
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=worker_mod.pool_initializer,
            initargs=(self.warmed,),
        )
        return True

    def submit_chunk(self, payload: ChunkPayload) -> "Future":
        """Submit one chunk; the future resolves to ``(warmup, outcomes,
        chunk_info)``.  Raises :class:`PoolBrokenError` when not started.
        """
        if self._executor is None:
            raise PoolBrokenError("LocalProcessPool is not started")
        return self._executor.submit(worker_mod.run_chunk, payload)

    def close(self, fail_fast: bool = False) -> None:
        """Shut workers down (idempotent; :meth:`start` revives the pool).

        ``fail_fast`` drops pending work without waiting — used when the
        pool is suspect (crash recovery, batch abort, interpreter
        teardown).
        """
        executor, self._executor = self._executor, None
        self.warmed = ()
        if executor is not None:
            executor.shutdown(wait=not fail_fast, cancel_futures=fail_fast)

    @property
    def alive(self) -> bool:
        """True between a successful :meth:`start` and :meth:`close`."""
        return self._executor is not None
