"""Distributed telemetry across the pool boundary (docs/INTERNALS.md §15).

The contract under test: a live parent telemetry session makes the
pool's workers ship their capture back on the chunk reply, clock-rebased
into one merged timeline — and none of it may ever change what a cell
computes.  Plus the satellites: remote tracebacks on failures, unarmed
timeouts surfaced through chunk telemetry, truncation accounting, the
progress heartbeat, and the flight-recorder manifest.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.faults import FaultPlan
from repro.obs import (
    CELL_EXEC,
    CONFIG_PINNED,
    PROGRESS,
    TIMEOUT_DISABLED,
    FlightRecorder,
    Telemetry,
)
from repro.obs.export import chrome_trace
from repro.obs.registry import MetricsRegistry
from repro.obs.remote import (
    SNAPSHOT_VERSION,
    _monotone,
    merge_metrics,
    rebase_start_us,
    snapshot_metrics,
)
from repro.sim import engine as engine_mod
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec
from repro.sim.engine import Engine
from repro.sim.pools.worker import picklable, run_chunk

BUDGET = 60_000



def config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(max_instructions=BUDGET, **kwargs)


def grid(cfg) -> list:
    return [
        RunSpec(name, scheme, cfg)
        for name in ("db", "jess")
        for scheme in ("baseline", "hotspot")
    ]


@pytest.fixture(scope="module")
def reference():
    """Ground truth: the grid run serially with telemetry off."""
    return (
        Engine(use_cache=False, memory_cache={})
        .run(grid(config()))
        .values()
    )


class TestBitIdentity:
    """Telemetry-on must equal telemetry-off for every ``jobs``."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "local:2"])
    def test_capture_never_changes_results(self, jobs, reference):
        telemetry = Telemetry()
        with Engine(
            jobs=jobs, use_cache=False, memory_cache={}, telemetry=telemetry
        ) as engine:
            produced = engine.run(grid(config())).values()
        assert produced == reference

    def test_truncated_capture_still_bit_identical(
        self, reference, monkeypatch
    ):
        monkeypatch.setattr(engine_mod, "DEFAULT_CELL_EVENT_CAP", 4)
        telemetry = Telemetry()
        with Engine(
            jobs=2,
            use_cache=False,
            memory_cache={},
            telemetry=telemetry,
        ) as engine:
            produced = engine.run(grid(config())).values()
        assert produced == reference
        assert engine.stats.remote_events_dropped > 0


class TestMergedTrace:
    """Structure of the clock-aligned merged session."""

    @pytest.fixture(scope="class")
    def traced(self):
        telemetry = Telemetry()
        cfg = ExperimentConfig(max_instructions=300_000)
        with Engine(
            jobs=2,
            use_cache=False,
            memory_cache={},
            telemetry=telemetry,
        ) as engine:
            batch = engine.run(
                [RunSpec("db", s, cfg) for s in ("baseline", "hotspot")]
            )
            stats = engine.stats
        assert all(o.ok for o in batch)
        return telemetry, stats

    def test_worker_tuning_events_land_on_remote_tracks(self, traced):
        telemetry, _ = traced
        remote = [t for t in telemetry.log.tracks() if "|" in t]
        assert remote, "no worker-side tracks were merged"
        # Track shape: origin|c{index}:{bench}/{scheme}|{sim track}
        origin, cell, sim_track = remote[0].split("|")
        assert "#" in origin
        assert cell.startswith("c") and "/" in cell
        assert sim_track
        pinned = telemetry.log.by_name(CONFIG_PINNED)
        assert pinned, "worker tuning decisions did not reach the parent"
        assert all("|" in e.track for e in pinned)

    def test_cell_exec_spans_on_host_tracks(self, traced):
        telemetry, _ = traced
        spans = telemetry.log.by_name(CELL_EXEC)
        assert len(spans) == 2  # one per cell
        for span in spans:
            assert span.track.startswith("host:")
            assert span.dur > 0
            assert "#" in span.args["origin"]
        assert {s.args["scheme"] for s in spans} == {"baseline", "hotspot"}
        assert {s.args["status"] for s in spans} == {"ok"}

    def test_every_track_is_monotone(self, traced):
        telemetry, _ = traced
        last: dict = {}
        for event in telemetry.log:
            floor = last.get(event.track)
            assert floor is None or event.ts >= floor, (
                f"track {event.track!r} stepped backwards at {event.name}"
            )
            last[event.track] = event.ts

    def test_chrome_trace_gets_per_worker_processes(self, traced):
        telemetry, _ = traced
        trace = chrome_trace(telemetry)
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids >= {1, 2, 3}  # sim, engine, >=1 worker process
        worker_names = [
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M"
            and e["name"] == "process_name"
            and e["pid"] >= 3
        ]
        assert worker_names
        assert all(n.startswith("worker ") for n in worker_names)
        # Remote sim events carry their worker's pid, not the parent's.
        remote = [
            e for e in events
            if e.get("ph") != "M" and e["name"] == "config_pinned"
        ]
        assert remote
        assert all(e["pid"] >= 3 for e in remote)

    def test_worker_metrics_aggregate_into_parent(self, traced):
        telemetry, _ = traced
        names = telemetry.metrics.names()
        worker_side = [
            n for n in names
            if n.startswith(("policy.", "vm.", "bbv.", "machine.", "blockjit."))
        ]
        assert worker_side, "worker metrics were not folded into the parent"
        assert telemetry.metrics.counter("vm.hotspots_detected").value > 0


class _IdentityAxis:
    """Telemetry stub whose wall axis is the identity function."""

    def wall_to_us(self, wall: float) -> float:
        return wall


class TestClockRebase:
    def _info(self, wall_start: float, elapsed_us: float) -> dict:
        return {"wall_start": wall_start, "elapsed_us": elapsed_us}

    def test_estimate_inside_window_is_kept(self):
        assert rebase_start_us(
            _IdentityAxis(), self._info(500.0, 100.0), 400.0, 700.0
        ) == 500.0

    def test_estimate_before_submission_is_clamped_up(self):
        # The chunk cannot have started before it was submitted.
        assert rebase_start_us(
            _IdentityAxis(), self._info(100.0, 100.0), 400.0, 700.0
        ) == 400.0

    def test_estimate_too_late_is_clamped_down(self):
        # The measured duration must fit before the reply receipt.
        assert rebase_start_us(
            _IdentityAxis(), self._info(900.0, 100.0), 400.0, 700.0
        ) == 600.0

    def test_degenerate_window_collapses_to_submission(self):
        # elapsed > receipt - submitted: the only feasible point is the
        # submission instant.
        assert rebase_start_us(
            _IdentityAxis(), self._info(500.0, 400.0), 400.0, 450.0
        ) == 400.0

    def test_monotone_clamps_and_advances(self):
        hwm: dict = {}
        assert _monotone(hwm, "t", 10.0) == 10.0
        assert _monotone(hwm, "t", 5.0) == 10.0  # clamped to high water
        assert _monotone(hwm, "t", 12.0) == 12.0
        assert _monotone(hwm, "other", 1.0) == 1.0  # tracks independent


class TestMetricsSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7.5)
        hist = registry.histogram("h", [1.0, 10.0])
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        return registry

    def test_round_trip_into_fresh_registry(self):
        snap = snapshot_metrics(self._populated())
        # The snapshot is wire-safe plain data.
        pickle.dumps(snap)
        parent = MetricsRegistry()
        merge_metrics(parent, snap)
        assert parent.counter("c").value == 3
        assert parent.gauge("g").value == 7.5
        hist = parent.histogram("h", [1.0, 10.0])
        assert hist.count == 3
        assert hist.total == 55.5
        assert hist.min == 0.5
        assert hist.max == 50.0
        assert list(hist.bucket_counts) == [1, 1, 1]

    def test_merging_twice_accumulates_counters(self):
        snap = snapshot_metrics(self._populated())
        parent = MetricsRegistry()
        merge_metrics(parent, snap)
        merge_metrics(parent, snap)
        assert parent.counter("c").value == 6
        assert parent.histogram("h", [1.0, 10.0]).count == 6

    def test_kind_clash_is_skipped(self):
        parent = MetricsRegistry()
        parent.gauge("c").set(1.0)
        merge_metrics(parent, {"c": ("counter", 5)})
        assert parent.gauge("c").value == 1.0


class TestChunkProtocol:
    """run_chunk's payload/reply arity tolerance + unarmed accounting."""

    def _cells(self, scheme="baseline", budget=20_000):
        cfg = ExperimentConfig(max_instructions=budget)
        return ((0, RunSpec("db", scheme, cfg), 1),)

    def test_captureless_payload_gets_minimal_chunk_info(self):
        # No capture spec: the reply still carries the minimal snapshot
        # the scheduler's cost model feeds on (per-cell seconds and the
        # executor identity), but no telemetry cells.
        reply = run_chunk((self._cells(), None, None))
        assert len(reply) == 3
        _, outcomes, chunk_info = reply
        assert outcomes[0][1] == "ok"
        assert chunk_info["v"] == SNAPSHOT_VERSION
        assert chunk_info["cells"] is None
        assert chunk_info["origin"]
        ((index, seconds),) = chunk_info["cell_times"]
        assert index == 0 and seconds > 0.0
        assert chunk_info["service_s"] >= seconds

    def test_capture_payload_gets_chunk_info(self):
        # 300k instructions: enough budget for the tuner to finish a
        # walk and pin a configuration (60k only explores).
        reply = run_chunk(
            (
                self._cells("hotspot", 300_000),
                None,
                None,
                {"max_events": 2048},
            )
        )
        assert len(reply) == 3
        _, outcomes, chunk_info = reply
        assert outcomes[0][1] == "ok"
        assert chunk_info["v"] == SNAPSHOT_VERSION
        assert chunk_info["wall_end"] >= chunk_info["wall_start"]
        assert chunk_info["elapsed_us"] > 0
        (cell,) = chunk_info["cells"]
        assert cell["index"] == 0
        assert cell["benchmark"] == "db"
        assert cell["scheme"] == "hotspot"
        assert cell["status"] == "ok"
        names = {event[0] for event in cell["events"]}
        assert CONFIG_PINNED in names
        assert cell["metrics"]  # snapshot of the cell's registry
        pickle.dumps(chunk_info)  # the snapshot must be wire-safe

    def test_unarmed_timeout_rides_capture(self):
        reply: list = []
        thread = threading.Thread(
            target=lambda: reply.append(
                run_chunk(
                    (self._cells(), 30.0, None, {"max_events": 64})
                )
            )
        )
        thread.start()
        thread.join()
        _, outcomes, chunk_info = reply[0]
        assert outcomes[0][1] == "ok"
        assert chunk_info["unarmed_timeouts"] == 1
        (cell,) = chunk_info["cells"]
        assert TIMEOUT_DISABLED in {event[0] for event in cell["events"]}

    def test_unarmed_timeout_rides_even_without_capture(self):
        reply: list = []
        thread = threading.Thread(
            target=lambda: reply.append(
                run_chunk((self._cells(), 30.0, None))
            )
        )
        thread.start()
        thread.join()
        assert len(reply[0]) == 3
        _, outcomes, chunk_info = reply[0]
        assert outcomes[0][1] == "ok"
        assert chunk_info["unarmed_timeouts"] == 1
        assert chunk_info["cells"] is None  # minimal, capture-less form

    def test_engine_counts_worker_unarmed_timeouts(self):
        # Pool workers run cells on their main thread, so timeouts arm
        # there and unarmed stays 0; the positive case is the thread
        # test above.  Here the parent merge path is exercised
        # directly.
        engine = Engine(use_cache=False, memory_cache={})
        engine._merge_worker_snapshot(
            {"v": SNAPSHOT_VERSION, "unarmed_timeouts": 3, "cells": None},
            0.0,
        )
        assert engine.stats.timeouts_unarmed == 3

    def test_version_mismatch_degrades_to_no_telemetry(self):
        telemetry = Telemetry()
        engine = Engine(
            use_cache=False,
            memory_cache={},
            telemetry=telemetry,
        )
        engine._merge_worker_snapshot(
            {"v": 999, "unarmed_timeouts": 0, "cells": [{"bogus": 1}]},
            0.0,
        )
        assert len(telemetry.log) == 0
        assert engine.stats.remote_events_dropped == 0


class TestPicklableTraceback:
    def test_picklable_error_keeps_traceback_through_pickle(self):
        try:
            raise ValueError("boom at depth")
        except ValueError as error:
            shipped = picklable(error)
        assert shipped is not None
        revived = pickle.loads(pickle.dumps(shipped))
        assert "ValueError: boom at depth" in revived.remote_traceback
        assert "test_remote_obs" in revived.remote_traceback

    def test_unpicklable_error_degrades_to_stand_in_with_traceback(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        try:
            raise Unpicklable("cannot travel")
        except Unpicklable as error:
            shipped = picklable(error)
        assert isinstance(shipped, RuntimeError)
        assert "Unpicklable" in str(shipped)
        assert "cannot travel" in shipped.remote_traceback
        pickle.loads(pickle.dumps(shipped))

    def test_remote_failure_surfaces_traceback_in_outcome(self):
        plan = FaultPlan(seed=3, cell_exception=1.0)
        with Engine(
            jobs=2,
            use_cache=False,
            memory_cache={},
            fault_plan=plan,
            failure_policy="skip",
        ) as engine:
            batch = engine.run(grid(config()))
        assert batch.failures
        for outcome in batch.failures:
            assert outcome.traceback is not None
            assert "InjectedFault" in outcome.traceback


class TestProgressHeartbeat:
    def test_progress_events_and_callback_fields(self):
        telemetry = Telemetry()
        seen: list = []
        engine = Engine(
            use_cache=False,
            memory_cache={},
            telemetry=telemetry,
            progress=seen.append,
        )
        cells = grid(config())
        engine.run(cells)
        events = telemetry.log.by_name(PROGRESS)
        assert len(events) == len(cells)
        assert [e.args["done"] for e in events] == [1, 2, 3, 4]
        assert all(e.args["total"] == len(cells) for e in events)
        assert len(seen) == len(cells)
        # ETA: a uniform-rate estimate while cells remain, None at the end.
        assert all(p.eta_s is not None for p in seen[:-1])
        assert seen[-1].eta_s is None
        assert seen[-1].done == seen[-1].total == len(cells)
        assert all(p.in_flight == 0 for p in seen)  # serial path


class TestFlightRecorder:
    def test_round_trip_manifest(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "run.jsonl")
        engine = Engine(
            use_cache=False,
            memory_cache={},
            recorder=recorder,
        )
        cells = grid(config())
        engine.run(cells)
        records = FlightRecorder.read(recorder.path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "begin_batch"
        assert kinds[-1] == "end_batch"
        assert kinds.count("cell") == len(cells)
        begin = records[0]
        assert begin["backend"] == "serial"
        assert len(begin["cells"]) == len(cells)
        assert all(c["fingerprint"] for c in begin["cells"])
        end = records[-1]
        assert end["outcomes"] == {"ok": len(cells)}
        assert end["degraded"] is False
        assert end["stats"]["simulations"] == len(cells)

    def test_failures_record_error_and_traceback(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "run.jsonl")

        def exploding_runner(spec):
            raise ValueError(f"no {spec.benchmark_name}")

        engine = Engine(
            use_cache=False,
            memory_cache={},
            recorder=recorder,
            runner=exploding_runner,
            failure_policy="skip",
        )
        engine.run([RunSpec("db", "baseline", config())])
        cell_records = [
            r for r in FlightRecorder.read(recorder.path)
            if r["kind"] == "cell"
        ]
        assert len(cell_records) == 1
        record = cell_records[0]
        assert record["status"] == "failed"
        assert "no db" in record["error"]
        assert "ValueError" in record["traceback"]

    def test_aborted_batch_leaves_a_record(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "run.jsonl")

        def exploding_runner(spec):
            raise ValueError("fatal")

        engine = Engine(
            use_cache=False,
            memory_cache={},
            recorder=recorder,
            runner=exploding_runner,
        )
        with pytest.raises(Exception):
            engine.run([RunSpec("db", "baseline", config())])
        kinds = [r["kind"] for r in FlightRecorder.read(recorder.path)]
        assert kinds[0] == "begin_batch"
        assert kinds[-1] == "batch_aborted"

    def test_env_hook_attaches_a_default_recorder(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        engine = Engine(use_cache=False, memory_cache={})
        assert engine.recorder is not None
        assert engine.recorder.path.parent == tmp_path
        monkeypatch.delenv("REPRO_FLIGHT_DIR")
        assert Engine(
            use_cache=False, memory_cache={}
        ).recorder is None


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
