"""The local multiprocess backend.

:class:`LocalProcessPool` is the warm persistent ``ProcessPoolExecutor``
behind the :class:`~repro.sim.pools.base.Pool` API: workers survive
across batches, the spawn-time initializer pre-builds the batch's
benchmarks (docs/INTERNALS.md §13), and a dead worker surfaces as
``BrokenProcessPool`` for the engine's rebuild machinery.  It must
match the engine's in-process serial path bit for bit.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence, Tuple

from repro.sim.pools import worker as worker_mod
from repro.sim.pools.base import ChunkPayload, Pool, PoolBrokenError

#: Exception types (raised from :meth:`Pool.submit_chunk` or set on its
#: future) that mean "the pool died", not "the cell failed".
BROKEN_EXCEPTIONS: Tuple[type, ...] = (BrokenProcessPool, PoolBrokenError)


class LocalProcessPool(Pool):
    """Persistent warm ``ProcessPoolExecutor`` backend (the default for
    ``--backend local:N`` / ``--jobs N``)."""

    name = "local"

    def __init__(self, workers: int = 2):
        self.workers = max(1, int(workers))
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Benchmarks the live executor's initializer pre-built.
        self.warmed: Tuple[str, ...] = ()

    def start(self, warm_benchmarks: Sequence[str] = ()) -> bool:
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
        if self._executor is None:
            raise PoolBrokenError("LocalProcessPool is not started")
        return self._executor.submit(worker_mod.run_chunk, payload)

    def close(self, fail_fast: bool = False) -> None:
        executor, self._executor = self._executor, None
        self.warmed = ()
        if executor is not None:
            executor.shutdown(wait=not fail_fast, cancel_futures=fail_fast)

    @property
    def alive(self) -> bool:
        return self._executor is not None
