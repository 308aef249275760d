"""Interval splitting for the block-event stream.

The BBV baseline samples execution in fixed-size instruction intervals
(paper §4.1: 1 M instructions, scaled here).  :class:`IntervalSplitter`
turns the block-event stream into interval-boundary notifications without
assuming blocks align with boundaries — a block straddling a boundary is
attributed to the interval in which it *completes*, matching how a
hardware instruction counter would fire.
"""

from __future__ import annotations

from typing import Callable


class IntervalSplitter:
    """Fires a callback every ``interval_insns`` retired instructions.

    ``on_boundary(index, insns_in_interval)`` is invoked when an interval
    completes; ``index`` counts intervals from 0.  A block that pushes the
    counter past one or more boundaries triggers one callback per boundary
    crossed (long blocks cannot swallow intervals silently).
    """

    def __init__(
        self,
        interval_insns: int,
        on_boundary: Callable[[int, int], None],
    ):
        if interval_insns <= 0:
            raise ValueError(
                f"interval size must be positive, got {interval_insns}"
            )
        self.interval_insns = interval_insns
        self.on_boundary = on_boundary
        self._in_interval = 0
        self._index = 0

    @property
    def current_index(self) -> int:
        return self._index

    @property
    def instructions_in_current(self) -> int:
        return self._in_interval

    def advance(self, n_insns: int) -> int:
        """Account ``n_insns`` retired instructions; returns the number of
        interval boundaries crossed."""
        self._in_interval += n_insns
        crossed = 0
        while self._in_interval >= self.interval_insns:
            self._in_interval -= self.interval_insns
            self.on_boundary(self._index, self.interval_insns)
            self._index += 1
            crossed += 1
        return crossed

    def flush(self) -> None:
        """Emit a final partial interval, if any (end of run)."""
        if self._in_interval > 0:
            self.on_boundary(self._index, self._in_interval)
            self._index += 1
            self._in_interval = 0
