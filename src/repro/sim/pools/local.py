"""The two backends: in-process and local multiprocess.

:class:`SerialPool` answers chunks synchronously in the calling
process — the reference backend the process pool must match bit for
bit (and the natural choice for tracing, debugging, and single-cell
runs).

:class:`LocalProcessPool` is the warm persistent ``ProcessPoolExecutor``
behind the :class:`~repro.sim.pools.base.Pool` API: workers survive
across batches, the spawn-time initializer pre-builds benchmarks and
pre-fuses their block closures (docs/INTERNALS.md §13), and a dead
worker surfaces as ``BrokenProcessPool`` for the engine's rebuild
machinery.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence, Tuple

from repro.sim.pools import worker as worker_mod
from repro.sim.pools.base import (
    ChunkPayload,
    Pool,
    PoolBrokenError,
    completed_future,
)

#: Exception types (raised from :meth:`Pool.submit_chunk` or set on its
#: future) that mean "the pool died", not "the cell failed".
BROKEN_EXCEPTIONS: Tuple[type, ...] = (BrokenProcessPool, PoolBrokenError)


class SerialPool(Pool):
    """Chunks run inline in the calling process, one cell at a time.

    ``submit_chunk`` returns an already-resolved future; per-cell
    failures come back as ``("error", exc)`` outcomes exactly like a
    process backend would report them.  There are no workers to crash,
    so ``worker_crash`` injections never fire (the plan site requires a
    disposable process).
    """

    name = "serial"
    parallel = False
    workers = 1

    def __init__(self) -> None:
        self._alive = False

    def start(self, warm_benchmarks: Sequence[str] = ()) -> bool:
        spawned = not self._alive
        self._alive = True
        return spawned

    def submit_chunk(self, payload: ChunkPayload) -> "Future":
        if not self._alive:
            raise PoolBrokenError("SerialPool is closed")
        import dataclasses

        cells, timeout, plan = payload[:3]
        # No pickle boundary shields the caller here, so two worker-side
        # behaviours must be neutralised inline: ``run_chunk`` mutating
        # ``spec.benchmark`` into a built object (copy each spec), and a
        # ``worker_crash`` injection ``os._exit``-ing the calling
        # process (the site requires a disposable worker; the serial
        # engine path has never honoured it either).
        safe_cells = tuple(
            (index, dataclasses.replace(spec), attempt)
            for index, spec, attempt in cells
        )
        if plan is not None and plan.worker_crash:
            plan = dataclasses.replace(plan, worker_crash=0.0)
        return completed_future(
            worker_mod.run_chunk(
                (safe_cells, timeout, plan) + tuple(payload[3:])
            )
        )

    def close(self, fail_fast: bool = False) -> None:
        self._alive = False

    @property
    def alive(self) -> bool:
        return self._alive


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
