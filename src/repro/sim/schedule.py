"""The engine's chunk partition for one pool round.

Cells stay in submission order and are sliced into consecutive chunks
of ``chunk_size`` cells, or — when it is ``None`` — of
``ceil(n / (workers * 4))`` cells capped at 8: enough chunks to keep
every worker busy for several rounds while amortising pickling,
without collapsing the crash-retry granularity of small batches.

Cells the engine runs in lockstep (docs/INTERNALS.md §13) form a
*group*; a chunk never splits one: it closes at the first group
boundary at or after ``chunk_size`` cells.

A partition only decides *which cells share a pickled payload*:
results land by batch index, so any partition is bit-identical to
serial (tests/test_schedule.py).  Cost-model LPT packing used to offer
a second partition; it was retired because it did not cut wall time
(docs/INTERNALS.md §18).
"""

from __future__ import annotations

import math
from typing import List, Optional


def plan_round(
    indices: List[int],
    workers: int,
    chunk_size: Optional[int] = None,
    groups: Optional[List[List[int]]] = None,
) -> List[List[int]]:
    """Partition one round's cell indices into chunks, in dispatch order.

    ``groups`` (default: every cell alone) splits ``indices`` into runs
    of consecutive cells that must share a chunk.
    """
    size = chunk_size
    if size is None:
        size = min(8, max(1, math.ceil(len(indices) / (max(1, workers) * 4))))
    chunks: List[List[int]] = []
    chunk: List[int] = []
    for group in groups if groups is not None else ([i] for i in indices):
        chunk = chunk + group
        if len(chunk) >= size:
            chunks.append(chunk)
            chunk = []
    return chunks + ([chunk] if chunk else [])
