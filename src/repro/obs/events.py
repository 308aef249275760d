"""Run-scoped event log: the structured timeline of tuning decisions.

The paper's mechanism is a *sequence* of runtime decisions — hotspot
detection, per-CU tuning walks, configuration pinning, drift-triggered
re-tuning — and evaluating it (tuning latency, configurations explored,
time spent mis-configured) needs those decisions as first-class,
timestamped records rather than end-of-run aggregates.

Two clocks coexist:

* **simulated time** — the machine's retired-instruction counter.  Every
  event emitted from inside a simulation (VM, policies, machine model)
  is stamped with it, so the timeline is deterministic and comparable
  across runs;
* **wall time** — ``time.perf_counter`` relative to telemetry creation,
  used by the engine for cell scheduling events (where simulated time of
  different cells is meaningless to interleave).

The two domains never share a track; the Chrome-trace exporter places
them in separate trace processes.

Overhead contract (docs/INTERNALS.md §10): telemetry is strictly opt-in.
The default sink is :data:`NULL_TELEMETRY`, whose ``enabled`` flag lets
hot code skip argument construction entirely, and only
*decision-granularity* events exist — nothing is ever emitted per block.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry, NullMetricsRegistry

# -- event vocabulary -------------------------------------------------------
#
# Simulation-clock events (ts = retired instructions):
HOTSPOT_DETECTED = "hotspot_detected"
HOTSPOT_UNMANAGED = "hotspot_unmanaged"
HOTSPOT_INVOKE = "hotspot_invoke"
TUNING_STARTED = "tuning_started"
CONFIG_TRIED = "config_tried"
CONFIG_PINNED = "config_pinned"
CONFIG_DEMOTED = "config_demoted"
SAMPLING_RETUNE = "sampling_retune"
CACHE_RESIZE = "cache_resize"
RECONFIG_APPLIED = "reconfig_applied"
RECONFIG_DENIED = "reconfig_denied"
PHASE_TRANSITION = "phase_transition"
# Wall-clock events (ts = microseconds since telemetry creation):
CELL_START = "cell_start"
CELL_DONE = "cell_done"
STORE_HIT = "store_hit"
MEMORY_HIT = "memory_hit"
TIMEOUT = "timeout"
# Wall-clock failure/degradation events (graceful-degradation paths):
WORKER_CRASH = "worker_crash"
CELL_FAILED = "cell_failed"
BATCH_DEGRADED = "batch_degraded"
TIMEOUT_DISABLED = "timeout_disabled"
# Wall-clock pool-lifecycle events (persistent worker pools):
POOL_SPAWNED = "pool_spawned"
POOL_REUSED = "pool_reused"
WORKER_WARMUP = "worker_warmup"
# Wall-clock distributed-telemetry events (docs/INTERNALS.md §15):
# ``cell_exec`` spans mark where a cell actually executed (one track per
# worker process, clock-rebased into the parent timeline); ``progress``
# is the engine's per-cell heartbeat (done/total, in-flight, ETA).
CELL_EXEC = "cell_exec"
PROGRESS = "progress"
# Wall-clock scheduling event: one per pool round, carrying its chunk
# count, cell count and measured makespan.
SCHEDULE_PLANNED = "schedule_planned"

#: Default per-cell event budget for worker-side capture.  Deliberately
#: far below the parent log's bound: a chunk reply is one pickle, and an
#: over-chatty cell must truncate (counted) rather than balloon it.
#: Lives here, not in :mod:`repro.obs.remote`, so the engine can default
#: to it without loading the worker-side capture code.
DEFAULT_CELL_EVENT_CAP = 2048

#: The complete vocabulary, in rough lifecycle order (used by summaries).
EVENT_TYPES: Tuple[str, ...] = (
    HOTSPOT_DETECTED,
    HOTSPOT_UNMANAGED,
    HOTSPOT_INVOKE,
    TUNING_STARTED,
    CONFIG_TRIED,
    CONFIG_PINNED,
    CONFIG_DEMOTED,
    SAMPLING_RETUNE,
    CACHE_RESIZE,
    RECONFIG_APPLIED,
    RECONFIG_DENIED,
    PHASE_TRANSITION,
    CELL_START,
    CELL_DONE,
    STORE_HIT,
    MEMORY_HIT,
    TIMEOUT,
    WORKER_CRASH,
    CELL_FAILED,
    BATCH_DEGRADED,
    TIMEOUT_DISABLED,
    POOL_SPAWNED,
    POOL_REUSED,
    WORKER_WARMUP,
    CELL_EXEC,
    PROGRESS,
    SCHEDULE_PLANNED,
)

#: Events stamped with wall time; everything else uses simulated time.
WALL_CLOCK_EVENTS = frozenset(
    (
        CELL_START,
        CELL_DONE,
        STORE_HIT,
        MEMORY_HIT,
        TIMEOUT,
        WORKER_CRASH,
        CELL_FAILED,
        BATCH_DEGRADED,
        TIMEOUT_DISABLED,
        POOL_SPAWNED,
        POOL_REUSED,
        WORKER_WARMUP,
        CELL_EXEC,
        PROGRESS,
        SCHEDULE_PLANNED,
    )
)


class Event:
    """One timeline record.

    ``ts`` is simulated instructions for simulation events and wall-clock
    microseconds for engine events (see module docstring); ``dur`` (same
    unit as ``ts``) is non-zero for span events such as
    :data:`HOTSPOT_INVOKE` and :data:`CELL_DONE`.  ``track`` names the
    timeline lane (``"CU:L1D"``, ``"policy"``, ``"worker:0"``, ...).
    """

    __slots__ = ("name", "ts", "track", "dur", "args")

    def __init__(
        self,
        name: str,
        ts: float,
        track: str,
        dur: float = 0.0,
        args: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.ts = ts
        self.track = track
        self.dur = dur
        self.args = args or {}

    @property
    def wall_clock(self) -> bool:
        return self.name in WALL_CLOCK_EVENTS

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "ts": self.ts,
            "track": self.track,
        }
        if self.dur:
            payload["dur"] = self.dur
        if self.args:
            payload["args"] = self.args
        return payload

    def __repr__(self) -> str:
        return (
            f"Event({self.name!r}, ts={self.ts:.0f}, track={self.track!r}"
            + (f", dur={self.dur:.0f}" if self.dur else "")
            + ")"
        )


class EventLog:
    """Append-only, bounded event buffer for one run.

    The bound keeps a long traced run from exhausting memory: once
    ``max_events`` is reached, further appends are counted in ``dropped``
    instead of stored (decision events are few; the bound exists for the
    per-invocation :data:`HOTSPOT_INVOKE` spans of very hot methods).
    """

    def __init__(self, max_events: int = 100_000):
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: List[Event] = []
        self.dropped = 0

    def append(self, event: Event) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def by_name(self, name: str) -> List[Event]:
        return [e for e in self.events if e.name == name]

    def counts(self) -> Dict[str, int]:
        """Event count per type, vocabulary order first, extras after."""
        raw: Dict[str, int] = {}
        for event in self.events:
            raw[event.name] = raw.get(event.name, 0) + 1
        ordered = {n: raw.pop(n) for n in EVENT_TYPES if n in raw}
        ordered.update(sorted(raw.items()))
        return ordered

    def tracks(self) -> List[str]:
        """Distinct track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    def __repr__(self) -> str:
        return (
            f"EventLog({len(self.events)} events, dropped={self.dropped})"
        )


class Telemetry:
    """Live telemetry session: an event log plus a metrics registry.

    One ``Telemetry`` spans one run (or one engine batch); pass it to
    :func:`repro.sim.driver.execute` /
    :class:`repro.sim.engine.Engine` and export afterwards via
    :mod:`repro.obs.export`.
    """

    enabled = True

    def __init__(self, max_events: int = 100_000):
        self.log = EventLog(max_events)
        self.metrics = MetricsRegistry()
        self._t0 = time.perf_counter()
        #: Epoch anchor of this session's wall-clock microsecond axis.
        #: Worker snapshots stamp chunk starts in ``time.time()`` terms;
        #: :meth:`wall_to_us` maps those onto this session's timeline
        #: (docs/INTERNALS.md §15 has the full rebase math).
        self._t0_wall = time.time()

    def emit(
        self,
        name: str,
        ts: float,
        track: str = "policy",
        dur: float = 0.0,
        **args: object,
    ) -> None:
        """Record one simulated-time event."""
        self.log.append(Event(name, ts, track, dur, args))

    def now_us(self) -> float:
        """Wall-clock microseconds since this session started."""
        return (time.perf_counter() - self._t0) * 1e6

    def wall_to_us(self, wall: float) -> float:
        """Map an epoch timestamp (``time.time()``) onto this session's
        microsecond axis.  Used to rebase worker-side chunk snapshots;
        callers clamp the estimate into the feasible submission window
        because the two clocks drift independently."""
        return (wall - self._t0_wall) * 1e6

    def emit_wall(
        self,
        name: str,
        track: str = "engine",
        ts: Optional[float] = None,
        dur: float = 0.0,
        **args: object,
    ) -> None:
        """Record one wall-clock event (``ts`` defaults to *now*)."""
        self.log.append(
            Event(name, self.now_us() if ts is None else ts, track, dur, args)
        )

    def __repr__(self) -> str:
        return (
            f"Telemetry({len(self.log)} events, "
            f"{len(self.metrics)} metrics)"
        )


class _NullEventLog(EventLog):
    """Log that stores nothing (shared by the null telemetry sink)."""

    def __init__(self) -> None:
        super().__init__(max_events=1)

    def append(self, event: Event) -> None:  # noqa: ARG002 — sink
        pass


class NullTelemetry:
    """The disabled path: records nothing, allocates nothing per call.

    Instrumented code either checks ``telemetry.enabled`` before building
    event arguments (hot-ish paths) or calls ``emit``/``metrics``
    unconditionally (cold paths) — both are safe and free here.
    """

    enabled = False

    def __init__(self) -> None:
        self.log = _NullEventLog()
        self.metrics = NullMetricsRegistry()

    def emit(
        self,
        name: str,
        ts: float,
        track: str = "policy",
        dur: float = 0.0,
        **args: object,
    ) -> None:
        pass

    def now_us(self) -> float:
        return 0.0

    def wall_to_us(self, wall: float) -> float:
        return 0.0

    def emit_wall(
        self,
        name: str,
        track: str = "engine",
        ts: Optional[float] = None,
        dur: float = 0.0,
        **args: object,
    ) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTelemetry()"


#: Shared default sink.  Everything instrumented defaults to this, so an
#: un-traced run takes only the ``enabled`` check on decision paths.
NULL_TELEMETRY = NullTelemetry()
