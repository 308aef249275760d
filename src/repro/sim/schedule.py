"""Makespan-aware batch scheduler: LPT ordering + cost-balanced chunks.

The engine's historical dispatch was submission-order with size-blind
chunking: ``ceil(cells / (workers * 4))`` consecutive cells per chunk,
capped at 8.  That is optimal when every cell costs the same — and
pathological otherwise: a 10× cell landing in the last chunk idles
every other worker while one grinds (the classic makespan tail).

This module plans one pool round from the cost model's estimates
(:mod:`repro.sim.costmodel`):

* **LPT ordering** — cells are packed longest-estimated-first (the
  Longest Processing Time heuristic, a 4/3-approximation of optimal
  makespan), ties broken deterministically by ascending cell index;
* **cost-balanced packing** — the round is split into the same number
  of chunks the legacy rule would produce, but greedily balanced by
  *estimated seconds* instead of by count, so every chunk represents
  roughly equal work;
* **chunk-level LPT dispatch** — planned chunks are submitted in
  descending estimated-cost order, so the heaviest work starts first
  and the tail of the round is made of light chunks.

Planning is **semantics-free by construction**: a plan only permutes
*which cells share a pickled payload* and *the order payloads enter the
queue*.  Results land by batch index, every cell still runs exactly
once (per attempt), and ``BatchResult`` ordering is positional — so the
conformance grid (tests/test_schedule.py) proves bit-identical values
for ``schedule=fifo|lpt`` on both backends.

Cold-start contract: with no usable estimates (or ``schedule="fifo"``)
:func:`plan_round` returns **exactly** the legacy partition, verified
by a regression test — enabling the scheduler on a fresh machine
changes nothing until history exists.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.options import SCHEDULE_MODES

#: Fraction of a round's cells that must have estimates before the
#: planner trusts them; below this it falls back to the legacy plan
#: (median-filling a mostly-unknown round would be noise, not signal).
MIN_ESTIMATE_COVERAGE = 0.5


def legacy_chunks(
    indices: List[int],
    workers: int,
    chunk_size: Optional[int] = None,
) -> List[List[int]]:
    """The engine's historical partition, bit-for-bit.

    ``chunk_size=None`` auto-sizes to ``ceil(n / (workers * 4))`` capped
    at 8; cells stay in submission order, sliced consecutively.  This is
    the planner's cold-start behaviour, so it must never drift from
    the engine's historical partition (regression-tested).
    """
    size = chunk_size
    if size is None:
        workers = max(1, workers)
        size = min(8, max(1, math.ceil(len(indices) / (workers * 4))))
    size = max(1, int(size))
    return [
        indices[start:start + size]
        for start in range(0, len(indices), size)
    ]


@dataclass
class RoundPlan:
    """One planned pool round: chunks in dispatch order plus forecast."""

    #: Chunks in dispatch order; members ascending by cell index.
    chunks: List[List[int]] = field(default_factory=list)
    #: Estimated seconds per chunk (parallel to :attr:`chunks`; 0.0 in
    #: legacy mode where no estimates exist).
    chunk_costs: List[float] = field(default_factory=list)
    #: ``"lpt"`` (cost-balanced), ``"fifo"`` (requested legacy), or
    #: ``"cold"`` (lpt requested but insufficient history).
    mode: str = "cold"
    #: Cells that had a usable estimate.
    estimated_cells: int = 0
    #: LPT makespan forecast in seconds (0.0 in legacy mode).
    predicted_makespan_s: float = 0.0

    @property
    def cells(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


def predict_makespan(chunk_costs: Sequence[float], workers: int) -> float:
    """Greedy-simulated finish time of a round's chunks on the workers.

    Chunks are taken in the given (dispatch) order; each goes to the
    worker that would finish it earliest.  This mirrors how an
    idle-worker queue actually drains a round, so the forecast is
    comparable to the measured round wall-clock (``schedule_planned``
    telemetry reports both).
    """
    workers = max(1, workers)
    finish = [0.0] * workers
    for cost in chunk_costs:
        slot = min(range(workers), key=lambda s: (finish[s], s))
        finish[slot] += max(0.0, float(cost))
    return max(finish)


def plan_round(
    indices: List[int],
    estimates: Dict[int, Optional[float]],
    workers: int,
    chunk_size: Optional[int] = None,
    schedule: str = "lpt",
) -> RoundPlan:
    """Partition one round's cell indices into dispatch-ordered chunks.

    ``estimates`` maps cell index to predicted seconds (None = unknown).
    Falls back to the legacy count-based plan when ``schedule="fifo"``,
    when the round is trivial, or when fewer than
    :data:`MIN_ESTIMATE_COVERAGE` of the cells have estimates; unknown
    cells in an otherwise known round are filled with the round's
    median estimate.
    """
    indices = list(indices)
    known = {
        i: float(estimates[i])
        for i in indices
        if estimates.get(i) is not None and estimates[i] > 0
    }
    if schedule not in SCHEDULE_MODES:
        raise ValueError(
            f"schedule must be one of {SCHEDULE_MODES}, got {schedule!r}"
        )
    lpt = schedule == "lpt"
    coverage = (len(known) / len(indices)) if indices else 0.0
    if (
        not lpt
        or len(indices) <= 1
        or not known
        or coverage < MIN_ESTIMATE_COVERAGE
    ):
        chunks = legacy_chunks(indices, workers, chunk_size)
        return RoundPlan(
            chunks=chunks,
            chunk_costs=[0.0] * len(chunks),
            mode="fifo" if not lpt else "cold",
            estimated_cells=len(known),
        )

    fill = statistics.median(known.values())
    cost = {i: known.get(i, fill) for i in indices}

    # Same chunk *count* as the legacy rule (explicit chunk_size still
    # honoured), so enabling the scheduler changes packing, not payload
    # pressure or crash-retry granularity.
    n_chunks = len(legacy_chunks(indices, workers, chunk_size))

    # LPT greedy packing: heaviest cell first (ties by ascending index,
    # fully deterministic) into the bin with the lowest load.
    order = sorted(indices, key=lambda i: (-cost[i], i))
    bins: List[List[int]] = [[] for _ in range(n_chunks)]
    loads = [0.0] * n_chunks
    for i in order:
        b = min(range(n_chunks), key=lambda b: (loads[b], b))
        bins[b].append(i)
        loads[b] += cost[i]

    # Dispatch heaviest chunk first; members ascend by index so the
    # payload ordering (and any per-cell fault keying) is deterministic.
    ranked = sorted(
        range(n_chunks),
        key=lambda b: (-loads[b], bins[b][0] if bins[b] else -1),
    )
    chunks = [sorted(bins[b]) for b in ranked if bins[b]]
    chunk_costs = [loads[b] for b in ranked if bins[b]]
    return RoundPlan(
        chunks=chunks,
        chunk_costs=chunk_costs,
        mode="lpt",
        estimated_cells=len(known),
        predicted_makespan_s=predict_makespan(chunk_costs, workers),
    )

