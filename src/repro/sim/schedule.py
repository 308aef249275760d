"""The engine's lockstep groups: which pending cells run together.

Cells the engine may run in lockstep (docs/INTERNALS.md §13) share a
*lockstep key*; cells without one run alone.  A group is one serial
lockstep run, or one pool submission, so a round is a list of groups in
submission order.  Where cells run never changes what they compute:
results land by batch index, so any grouping is bit-identical to serial
(tests/test_schedule.py).  ``perf/tracing.py`` wraps this function by
name, so the engine calls it through the module.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional


def plan_round(
    indices: List[int], lockstep_key: Callable[[int], Optional[Hashable]]
) -> List[List[int]]:
    """Split ``indices`` into groups, in order: cells with the same
    non-None ``lockstep_key`` form one group at its first member's
    place; every other cell is a group of its own."""
    groups: List[List[int]] = []
    by_key: Dict[Hashable, List[int]] = {}
    for index in indices:
        key = lockstep_key(index)
        if key is None:
            groups.append([index])
            continue
        group = by_key.get(key)
        if group is None:
            group = by_key[key] = []
            groups.append(group)
        group.append(index)
    return groups
