"""Telemetry across the pool boundary: capture, snapshot, clock rebase.

Pool workers run in other processes, so the tuning
timeline a worker produces cannot simply share the parent's
:class:`~repro.obs.events.Telemetry` object.  This module implements the
distributed-telemetry contract of docs/INTERNALS.md §15:

* **worker side** — :class:`ChunkCapture` gives every cell of a chunk
  its own bounded :class:`~repro.obs.events.Telemetry`, then snapshots
  the events (compact tuples, not ``Event`` objects) and the metrics
  registry into one plain-data ``chunk_info`` dict that rides the
  existing chunk reply exactly like ``_WORKER_WARMUP`` stats do;
* **clock alignment** — the worker stamps the chunk start in *both*
  clock domains (``time.time()`` epoch seconds and ``perf_counter``
  elapsed).  The parent estimates where the chunk started on its own
  microsecond axis via :func:`rebase_start_us`: the epoch estimate,
  clamped into the feasible window ``[submitted_at, receipt - elapsed]``
  (the chunk cannot have started before it was submitted, nor so late
  that its measured duration overruns the receipt time);
* **parent side** — :func:`merge_chunk_info` rebases every snapshot
  into the parent session: per-cell simulation events land on their own
  ``{origin}|c{index}:{bench}/{scheme}|{track}`` tracks (simulated
  clock, one trace process per worker in the exporter), wall-clock
  events and one ``cell_exec`` span per cell land on the worker's
  ``host:{origin}`` track, and worker metrics are folded into the
  parent registry by :func:`merge_metrics`.  A per-track high-water
  mark keeps every rebased track monotone even when clamping or clock
  drift would otherwise step a timestamp backwards.

Everything here is opt-in: the engine only puts a capture spec on the
chunk payload when its telemetry session is live, so the
``NULL_TELEMETRY`` default never pays for any of it.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.events import (
    CELL_EXEC,
    DEFAULT_CELL_EVENT_CAP,
    Event,
    EventLog,
    Telemetry,
)

#: Version stamp on every chunk snapshot; bump on wire-shape changes so
#: a mixed-version parent/worker fleet degrades to "no telemetry"
#: instead of mis-parsing.
SNAPSHOT_VERSION = 1


def worker_origin() -> str:
    """``host#pid`` identity of this worker process (track prefix)."""
    return f"{socket.gethostname()}#{os.getpid()}"


def events_to_wire(log: EventLog) -> Tuple[tuple, ...]:
    """Compact ``(name, ts, track, dur, args-or-None)`` tuples."""
    return tuple(
        (e.name, e.ts, e.track, e.dur, e.args or None) for e in log
    )


def snapshot_metrics(registry) -> Dict[str, tuple]:
    """Plain-data form of a registry, mergeable via :func:`merge_metrics`.

    Counters/gauges snapshot to ``(kind, value)``; histograms keep their
    bucket layout so the parent can add distributions elementwise.
    """
    snap: Dict[str, tuple] = {}
    for name in registry.names():
        instrument = registry._instruments[name]
        kind = instrument.kind
        if kind == "histogram":
            snap[name] = (
                kind,
                {
                    "bounds": list(instrument.bounds),
                    "bucket_counts": list(instrument.bucket_counts),
                    "count": instrument.count,
                    "total": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                },
            )
        else:
            snap[name] = (kind, instrument.value)
    return snap


def merge_metrics(registry, snapshot: Dict[str, tuple]) -> None:
    """Fold a worker metrics snapshot into a live parent registry.

    Counters add, gauges keep the last written value, histograms merge
    bucket-by-bucket when the layouts match (streaming count/sum/min/max
    always merge).  A name already registered under a different kind is
    skipped — one confused worker must not poison the parent session.
    """
    for name in sorted(snapshot):
        kind, value = snapshot[name]
        try:
            if kind == "counter":
                registry.counter(name).inc(int(value or 0))
            elif kind == "gauge":
                if value is not None:
                    registry.gauge(name).set(value)
            elif kind == "histogram":
                hist = registry.histogram(name, value["bounds"])
                if list(hist.bounds) == list(value["bounds"]):
                    for i, n in enumerate(value["bucket_counts"]):
                        hist.bucket_counts[i] += n
                hist.count += value["count"]
                hist.total += value["total"]
                for attr in ("min", "max"):
                    theirs = value[attr]
                    if theirs is None:
                        continue
                    ours = getattr(hist, attr)
                    pick = min if attr == "min" else max
                    setattr(
                        hist,
                        attr,
                        theirs if ours is None else pick(ours, theirs),
                    )
        except TypeError:
            continue  # kind clash with an existing parent instrument


class ChunkCapture:
    """Worker-side telemetry for one chunk of cells.

    Created by :func:`repro.sim.pools.worker.run_chunk` when the payload
    carries a capture spec.  Each cell gets a fresh bounded
    :class:`Telemetry` (simulated clocks of different cells must never
    interleave on one track); :meth:`finish` packs everything into the
    plain-data ``chunk_info`` dict that rides the chunk reply.
    """

    def __init__(self, spec: Optional[Dict[str, object]] = None):
        spec = spec or {}
        self.max_events = max(
            1, int(spec.get("max_events", DEFAULT_CELL_EVENT_CAP))
        )
        self.wall_start = time.time()
        self._perf_start = time.perf_counter()
        self.cells: List[Dict[str, object]] = []
        self._cell: Optional[Telemetry] = None
        self._cell_started_us = 0.0

    def _elapsed_us(self) -> float:
        return (time.perf_counter() - self._perf_start) * 1e6

    def begin_cell(self) -> Telemetry:
        self._cell = Telemetry(max_events=self.max_events)
        self._cell_started_us = self._elapsed_us()
        return self._cell

    def end_cell(self, index: int, spec, status: str) -> None:
        telemetry, self._cell = self._cell, None
        if telemetry is None:
            return
        self.cells.append(
            {
                "index": index,
                "benchmark": spec.benchmark_name,
                "scheme": spec.scheme,
                "status": status,
                "start_us": self._cell_started_us,
                "dur_us": self._elapsed_us() - self._cell_started_us,
                "events": events_to_wire(telemetry.log),
                "dropped": telemetry.log.dropped,
                "metrics": snapshot_metrics(telemetry.metrics),
            }
        )

    def finish(self, unarmed_timeouts: int = 0) -> Dict[str, object]:
        return {
            "v": SNAPSHOT_VERSION,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "wall_start": self.wall_start,
            "wall_end": time.time(),
            "elapsed_us": self._elapsed_us(),
            "unarmed_timeouts": unarmed_timeouts,
            "cells": self.cells,
        }


def rebase_start_us(
    telemetry,
    chunk_info: Dict[str, object],
    submitted_at_us: float,
    receipt_us: float,
) -> float:
    """Estimate where a chunk started on the parent's microsecond axis.

    The worker's epoch stamp gives the estimate; clamping bounds it into
    the only feasible window — at or after submission, and early enough
    that the chunk's measured ``perf_counter`` duration fits before the
    reply was received.
    """
    elapsed_us = float(chunk_info.get("elapsed_us") or 0.0)
    estimate = telemetry.wall_to_us(
        float(chunk_info.get("wall_start") or 0.0)
    )
    upper = max(submitted_at_us, receipt_us - elapsed_us)
    return min(max(estimate, submitted_at_us), upper)


def _monotone(hwm: Dict[str, float], track: str, ts: float) -> float:
    """Clamp ``ts`` to the track's high-water mark and advance it."""
    floor = hwm.get(track)
    if floor is not None and ts < floor:
        ts = floor
    hwm[track] = ts
    return ts


def merge_chunk_info(
    telemetry,
    chunk_info: Dict[str, object],
    submitted_at_us: float,
    receipt_us: float,
    hwm: Dict[str, float],
) -> Dict[str, int]:
    """Rebase one worker chunk snapshot into a live parent session.

    Returns ``{"events": appended, "dropped": worker_truncations}``.
    ``hwm`` is the caller's per-track high-water-mark dict; it must
    outlive the batch so tracks stay monotone across chunks, batches
    and pool respawns.
    """
    if chunk_info.get("v") != SNAPSHOT_VERSION:
        return {"events": 0, "dropped": 0}
    origin = f"{chunk_info.get('host', '?')}#{chunk_info.get('pid', 0)}"
    host_track = f"host:{origin}"
    chunk_start_us = rebase_start_us(
        telemetry, chunk_info, submitted_at_us, receipt_us
    )
    appended = 0
    dropped = 0
    for cell in chunk_info.get("cells") or ():
        dropped += int(cell.get("dropped") or 0)
        cell_start_us = _monotone(
            hwm, host_track, chunk_start_us + float(cell["start_us"])
        )
        telemetry.emit_wall(
            CELL_EXEC,
            track=host_track,
            ts=cell_start_us,
            dur=float(cell["dur_us"]),
            benchmark=cell["benchmark"],
            scheme=cell["scheme"],
            status=cell["status"],
            origin=origin,
        )
        appended += 1
        sim_prefix = (
            f"{origin}|c{cell['index']}:"
            f"{cell['benchmark']}/{cell['scheme']}|"
        )
        for name, ts, track, dur, args in cell["events"]:
            event = Event(name, ts, track, dur, dict(args or {}))
            if event.wall_clock:
                # Worker wall events (e.g. timeout_disabled) join the
                # host track, rebased from cell-relative microseconds.
                event.ts = _monotone(
                    hwm, host_track, cell_start_us + event.ts
                )
                event.track = host_track
                event.args.setdefault("origin", origin)
            else:
                # Simulated clock restarts at 0 for every cell, so each
                # cell's tuning timeline gets its own track namespace.
                event.track = sim_prefix + track
            telemetry.log.append(event)
            appended += 1
        merge_metrics(telemetry.metrics, cell.get("metrics") or {})
    return {"events": appended, "dropped": dropped}
