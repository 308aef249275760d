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

#: Public name -> defining module.  Every name is imported on first
#: access (PEP 562), so importing one submodule (the engine imports
#: ``repro.obs.events``) loads neither the exporters nor the flight
#: recorder.
_LAZY = {
    "BATCH_DEGRADED": "repro.obs.events",
    "CACHE_RESIZE": "repro.obs.events",
    "CELL_DONE": "repro.obs.events",
    "CELL_EXEC": "repro.obs.events",
    "CELL_FAILED": "repro.obs.events",
    "CELL_START": "repro.obs.events",
    "CONFIG_DEMOTED": "repro.obs.events",
    "CONFIG_PINNED": "repro.obs.events",
    "CONFIG_TRIED": "repro.obs.events",
    "Counter": "repro.obs.registry",
    "EVENT_TYPES": "repro.obs.events",
    "Event": "repro.obs.events",
    "EventLog": "repro.obs.events",
    "FlightRecorder": "repro.obs.recorder",
    "Gauge": "repro.obs.registry",
    "HOTSPOT_DETECTED": "repro.obs.events",
    "HOTSPOT_INVOKE": "repro.obs.events",
    "HOTSPOT_UNMANAGED": "repro.obs.events",
    "Histogram": "repro.obs.registry",
    "MEMORY_HIT": "repro.obs.events",
    "MetricsRegistry": "repro.obs.registry",
    "NULL_TELEMETRY": "repro.obs.events",
    "NullMetricsRegistry": "repro.obs.registry",
    "NullTelemetry": "repro.obs.events",
    "PHASE_TRANSITION": "repro.obs.events",
    "PROGRESS": "repro.obs.events",
    "RECONFIG_APPLIED": "repro.obs.events",
    "RECONFIG_DENIED": "repro.obs.events",
    "RETRY": "repro.obs.events",
    "SAMPLING_RETUNE": "repro.obs.events",
    "STORE_HIT": "repro.obs.events",
    "TIMEOUT": "repro.obs.events",
    "TIMEOUT_DISABLED": "repro.obs.events",
    "TUNING_STARTED": "repro.obs.events",
    "Telemetry": "repro.obs.events",
    "WALL_CLOCK_EVENTS": "repro.obs.events",
    "WORKER_CRASH": "repro.obs.events",
    "chrome_trace": "repro.obs.export",
    "summary_markdown": "repro.obs.export",
    "timeline_markdown": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
