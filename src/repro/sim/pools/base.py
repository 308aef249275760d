"""The chunk protocol and the exceptions both sides of a pool raise
(docs/INTERNALS.md §14).

The chunk protocol is :func:`repro.sim.pools.worker.run_chunk`: a
payload of ``(cells, timeout, fault_plan)`` — extended to ``(cells,
timeout, fault_plan, capture)`` when the parent's telemetry session is
live (docs/INTERNALS.md §15) — with ``cells`` a tuple of
``(index, spec, attempt)`` triples (one cell, or one lockstep group;
``attempt`` is always 1), answered by
``(warmup, outcomes, chunk_info)`` where each outcome is
``(index, "ok", result)`` or ``(index, "error", exception)`` and
``chunk_info`` is the worker's snapshot: at minimum its executor
identity (``origin``), per-cell measured seconds (``cell_times``, which
the engine writes into each store entry's ``meta`` block), and
unarmed timeout count, plus the full clock-stamped telemetry capture
when the parent session is live (docs/INTERNALS.md §15).  A pool passes
the payload and reply through opaquely.  Any other reply shape, or a
``chunk_info["v"]`` other than :data:`repro.obs.remote.SNAPSHOT_VERSION`,
means the worker runs a different checkout: the engine aborts the batch
with a ``RuntimeError``.  Per-cell failures are *returned*, never
raised — a raised exception from a chunk means the worker itself died.

This module imports nothing heavy, so the engine's in-process path can
raise and catch :class:`CellTimeout` without loading the process pool.
"""

from __future__ import annotations

from typing import Tuple

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
    ``BrokenProcessPool``); the engine treats it as a worker death."""
