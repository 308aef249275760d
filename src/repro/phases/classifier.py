"""Phase classification over harvested BBVs.

Each interval's normalized vector is compared (Manhattan distance) against
the stored signature of every known phase; within threshold → that phase
(signature updated by EWMA), otherwise a new phase is allocated — the paper
grants its BBV implementation "unlimited uncompressed signatures".

Stability follows Figure 1's criterion: a phase *occurrence* (a maximal run
of consecutive same-phase intervals) is stable iff it spans two or more
intervals; single-interval occurrences are transitional.

The Manhattan search prunes: a phase whose distance in the vector's
heaviest bucket alone already exceeds the bound cannot be the phase
:func:`manhattan_distance` would pick (docs/INTERNALS.md §20).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.phases.bbv import BBVector, manhattan_distance, normalize

#: Relative rounding margin per vector element.  Any float summation of
#: n non-negative terms, plain (Python < 3.12) or compensated (3.12+),
#: is within a relative n·eps of the exact sum, which is at least any
#: one term.  So a term above ``bound * (1 + 4·n·eps)`` proves the full
#: computed distance is above ``bound``.
_MARGIN_PER_ELEMENT = 4 * sys.float_info.epsilon

#: Absolute slack on the bound, which keeps it sound when the best
#: distance so far is 0 or subnormal (where a relative margin rounds away).
_BOUND_FLOOR = 2.0 ** -1000


@dataclass
class PhaseOccurrenceStats:
    """Stable/transitional interval accounting (Figure 1)."""

    stable_intervals: int = 0
    transitional_intervals: int = 0
    occurrences: int = 0
    stable_occurrences: int = 0

    @property
    def total_intervals(self) -> int:
        return self.stable_intervals + self.transitional_intervals

    @property
    def stable_fraction(self) -> float:
        total = self.total_intervals
        return self.stable_intervals / total if total else 0.0

    def to_dict(self) -> Dict[str, int]:
        """Plain-JSON form (result-store schema v1)."""
        import dataclasses

        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "PhaseOccurrenceStats":
        return cls(**payload)


class _Phase:
    __slots__ = ("pid", "signature", "intervals", "ipc_sum", "ipc_sumsq",
                 "ipc_n")

    def __init__(self, pid: int, signature: Tuple[float, ...]):
        self.pid = pid
        self.signature = signature
        self.intervals = 0
        self.ipc_sum = 0.0
        self.ipc_sumsq = 0.0
        self.ipc_n = 0

    def note_ipc(self, ipc: float) -> None:
        self.ipc_n += 1
        self.ipc_sum += ipc
        self.ipc_sumsq += ipc * ipc

    @property
    def mean_ipc(self) -> float:
        return self.ipc_sum / self.ipc_n if self.ipc_n else 0.0

    @property
    def ipc_cov(self) -> Optional[float]:
        if self.ipc_n < 2 or self.ipc_sum <= 0:
            return None
        mean = self.ipc_sum / self.ipc_n
        variance = max(0.0, self.ipc_sumsq / self.ipc_n - mean * mean)
        return (variance ** 0.5) / mean if mean > 0 else None


class PhaseClassifier:
    """Signature table + consecutive-run stability tracking."""

    #: EWMA weight for signature refresh on re-classification.
    SIGNATURE_ALPHA = 0.25

    def __init__(
        self,
        similarity_threshold: float = 0.35,
        stable_min_intervals: int = 2,
    ):
        if similarity_threshold <= 0:
            raise ValueError("similarity_threshold must be positive")
        if stable_min_intervals < 1:
            raise ValueError("stable_min_intervals must be >= 1")
        self.similarity_threshold = similarity_threshold
        self.stable_min_intervals = stable_min_intervals
        self.phases: Dict[int, _Phase] = {}
        self.occurrence_stats = PhaseOccurrenceStats()
        self._next_pid = 0
        self._current_pid: Optional[int] = None
        self._run_length = 0
        self.classifications = 0
        self.phase_history: List[int] = []
        #: Subclasses that redefine ``_distance`` get the plain scan.
        self._pruned = type(self)._distance is PhaseClassifier._distance

    # -- matching hooks (overridden by alternative detectors) -------------

    def _prepare(self, vector):
        """Convert a harvested raw vector into the stored representation."""
        return normalize(vector)

    def _distance(self, prepared, signature) -> float:
        return manhattan_distance(prepared, signature)

    def _merge(self, signature, prepared):
        """Refresh a matched phase's stored signature."""
        alpha = self.SIGNATURE_ALPHA
        keep = 1 - alpha
        return tuple(
            [keep * s + alpha * v for s, v in zip(signature, prepared)]
        )

    # -- classification -----------------------------------------------------

    def classify(self, vector: BBVector) -> Tuple[int, bool, int]:
        """Classify one harvested interval vector.

        Returns ``(phase_id, is_new_phase, run_length)`` where
        ``run_length`` counts consecutive intervals (including this one)
        classified as ``phase_id``.
        """
        prepared = self._prepare(vector)
        if self._pruned and prepared:
            best_pid, best_distance = self._nearest_pruned(prepared)
        else:
            best_pid, best_distance = self._nearest(prepared)
        is_new = (
            best_pid is None or best_distance > self.similarity_threshold
        )
        if is_new:
            pid = self._next_pid
            self._next_pid += 1
            self.phases[pid] = _Phase(pid, prepared)
        else:
            pid = best_pid
            phase = self.phases[pid]
            phase.signature = self._merge(phase.signature, prepared)
        self.phases[pid].intervals += 1
        self.classifications += 1
        self.phase_history.append(pid)

        if pid == self._current_pid:
            self._run_length += 1
        else:
            self._close_run()
            self._current_pid = pid
            self._run_length = 1
        return pid, is_new, self._run_length

    def _nearest(self, prepared) -> Tuple[Optional[int], Optional[float]]:
        """The first phase at the least ``_distance`` from ``prepared``,
        as ``(pid, distance)``; ``(None, None)`` with no phases."""
        best_pid = None
        best_distance = None
        for phase in self.phases.values():
            distance = self._distance(prepared, phase.signature)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_pid = phase.pid
        return best_pid, best_distance

    def _nearest_pruned(
        self, prepared
    ) -> Tuple[Optional[int], Optional[float]]:
        """:meth:`_nearest` under :func:`manhattan_distance`, skipping
        phases that provably cannot decide the classification.

        A phase is skipped when its distance in ``prepared``'s heaviest
        bucket, one of the full distance's non-negative terms, exceeds
        the bound by the rounding margin: its full distance is then
        above the best so far (an earlier phase wins a tie anyway) or
        above the similarity threshold (no phase above it is matched).
        Every other phase's distance comes from
        :func:`manhattan_distance` itself.  So the result equals
        :meth:`_nearest`'s whenever that is within the threshold;
        otherwise both make ``classify`` open a new phase.
        """
        scale = 1.0 + _MARGIN_PER_ELEMENT * len(prepared)
        heaviest = max(prepared)
        bucket = prepared.index(heaviest)
        threshold = self.similarity_threshold
        bound = threshold * scale + _BOUND_FLOOR
        best_pid = None
        best_distance = None
        for phase in self.phases.values():
            signature = phase.signature
            if abs(heaviest - signature[bucket]) > bound:
                continue
            distance = manhattan_distance(prepared, signature)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_pid = phase.pid
                if distance < threshold:
                    bound = distance * scale + _BOUND_FLOOR
        return best_pid, best_distance

    def _close_run(self) -> None:
        if self._current_pid is None or self._run_length == 0:
            return
        stats = self.occurrence_stats
        stats.occurrences += 1
        if self._run_length >= self.stable_min_intervals:
            stats.stable_occurrences += 1
            stats.stable_intervals += self._run_length
        else:
            stats.transitional_intervals += self._run_length

    def flush(self) -> None:
        """Close the final run at end of execution."""
        self._close_run()
        self._current_pid = None
        self._run_length = 0

    # -- queries ----------------------------------------------------------------

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def note_interval_ipc(self, pid: int, ipc: float) -> None:
        self.phases[pid].note_ipc(ipc)

    def per_phase_ipc_cov(self) -> float:
        """Mean of per-phase interval-IPC CoVs (Table 5)."""
        covs = [
            p.ipc_cov for p in self.phases.values() if p.ipc_cov is not None
        ]
        return sum(covs) / len(covs) if covs else 0.0

    def inter_phase_ipc_cov(self) -> float:
        """CoV of per-phase mean IPCs (Table 5)."""
        means = [p.mean_ipc for p in self.phases.values() if p.ipc_n > 0]
        if len(means) < 2:
            return 0.0
        mean = sum(means) / len(means)
        if mean <= 0:
            return 0.0
        variance = sum((m - mean) ** 2 for m in means) / len(means)
        return (variance ** 0.5) / mean
