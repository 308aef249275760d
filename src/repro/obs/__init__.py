"""Telemetry subsystem: tuning-event timeline, metrics, exporters.

``repro.obs`` makes the framework's runtime decisions observable:

* :class:`~repro.obs.events.Telemetry` — one session object carrying a
  typed, timestamped :class:`~repro.obs.events.EventLog` plus a
  :class:`~repro.obs.registry.MetricsRegistry`;
* emit points across the VM (hotspot detection, hotspot invoke/return),
  both adaptation policies (tuning walk, pin, re-tune, phase
  transitions), the machine model (reconfigurations applied/denied), and
  the experiment engine (cell timing, cache-layer hits);
* exporters in :mod:`repro.obs.export` — JSONL, Chrome-trace JSON
  (``chrome://tracing`` / Perfetto), and markdown summaries for
  :mod:`repro.report`.

Telemetry is opt-in: every instrumented component defaults to the
module-level :data:`~repro.obs.events.NULL_TELEMETRY` no-op sink, and
only decision-granularity events exist (never per-block), so the
instrumented-but-disabled simulator stays within noise of an
uninstrumented one.  See docs/INTERNALS.md §10 for the architecture and
overhead contract.
"""

from repro.obs.events import (
    BATCH_DEGRADED,
    CACHE_RESIZE,
    CELL_DONE,
    CELL_EXEC,
    CELL_FAILED,
    CELL_START,
    CONFIG_DEMOTED,
    CONFIG_PINNED,
    CONFIG_TRIED,
    EVENT_TYPES,
    Event,
    EventLog,
    HOTSPOT_DETECTED,
    HOTSPOT_INVOKE,
    HOTSPOT_UNMANAGED,
    MEMORY_HIT,
    NULL_TELEMETRY,
    NullTelemetry,
    PHASE_TRANSITION,
    PROGRESS,
    RECONFIG_APPLIED,
    RECONFIG_DENIED,
    RETRY,
    SAMPLING_RETUNE,
    STORE_HIT,
    TIMEOUT,
    TIMEOUT_DISABLED,
    TUNING_STARTED,
    Telemetry,
    WALL_CLOCK_EVENTS,
    WORKER_CRASH,
)
from repro.obs.export import (
    chrome_trace,
    summary_markdown,
    timeline_markdown,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)

__all__ = [
    "BATCH_DEGRADED",
    "CACHE_RESIZE",
    "CELL_DONE",
    "CELL_EXEC",
    "CELL_FAILED",
    "CELL_START",
    "CONFIG_DEMOTED",
    "CONFIG_PINNED",
    "CONFIG_TRIED",
    "Counter",
    "EVENT_TYPES",
    "Event",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "HOTSPOT_DETECTED",
    "HOTSPOT_INVOKE",
    "HOTSPOT_UNMANAGED",
    "Histogram",
    "MEMORY_HIT",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullMetricsRegistry",
    "NullTelemetry",
    "PHASE_TRANSITION",
    "PROGRESS",
    "RECONFIG_APPLIED",
    "RECONFIG_DENIED",
    "RETRY",
    "SAMPLING_RETUNE",
    "STORE_HIT",
    "TIMEOUT",
    "TIMEOUT_DISABLED",
    "TUNING_STARTED",
    "Telemetry",
    "WALL_CLOCK_EVENTS",
    "WORKER_CRASH",
    "chrome_trace",
    "summary_markdown",
    "timeline_markdown",
    "write_chrome_trace",
    "write_jsonl",
]
