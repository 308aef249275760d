"""Resilience suite (docs/INTERNALS.md §16).

* **crash-safe resume** — ``Engine.run(cells, resume=manifest)``
  replays a prior run's flight-recorder manifest, re-executes only the
  never-finished cells (done cells come back from the result store
  under the same fingerprints), and survives orphaned store leases and
  GC'd entries;
* **close robustness** — closing an engine is idempotent, even over a
  pool whose workers already died or an engine whose constructor never
  ran;
* **recorder hardening** — schema-versioned records, and a torn
  trailing line is tolerated.
"""

from __future__ import annotations

import time
import warnings

from repro.obs import FlightRecorder
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec
from repro.sim.engine import Engine
from repro.sim.store import ResultStore

BUDGET = 25_000
SCHEMES = ("baseline", "bbv", "hotspot")


def config() -> ExperimentConfig:
    return ExperimentConfig(max_instructions=BUDGET)


def cells(benchmarks=("db",), schemes=SCHEMES) -> list:
    cfg = config()
    return [
        RunSpec(name, scheme, cfg)
        for name in benchmarks
        for scheme in schemes
    ]


class TestCrashSafeResume:
    """Manifest replay: only never-finished cells re-execute."""

    def _record_partial(self, tmp_path, done_specs, store):
        recorder = FlightRecorder(tmp_path / "original.jsonl")
        engine = Engine(
            pool="serial",
            store=store,
            memory_cache={},
            recorder=recorder,
        )
        try:
            batch = engine.run(done_specs)
        finally:
            engine.close()
        assert all(o.ok for o in batch)
        return recorder.path

    def test_resume_partitions_and_skips_done_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = cells(benchmarks=("db", "jess"))  # 6 cells
        manifest = self._record_partial(tmp_path, specs[:3], store)

        recorder = FlightRecorder(tmp_path / "continuation.jsonl")
        engine = Engine(
            pool="serial",
            store=store,
            memory_cache={},
            recorder=recorder,
        )
        try:
            batch = engine.run(specs, resume=manifest)
        finally:
            engine.close()
        assert all(o.ok for o in batch)
        stats = engine.stats
        assert stats.resumed_done == 3
        assert stats.resumed_new == 3
        # The store-hit gate: zero re-simulation of done cells.
        assert stats.simulations == 3
        assert stats.store_hits == 3
        # The continuation manifest links back to the original.
        begin = FlightRecorder.read(recorder.path)[0]
        assert begin["resume_of"] == str(manifest)
        assert begin["resume_counts"] == {
            "done": 3, "failed": 3 - 3, "new": 3
        }

    def test_resume_consumed_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = cells()
        manifest = self._record_partial(tmp_path, specs, store)
        engine = Engine(pool="serial", store=store, memory_cache={})
        try:
            engine.run(specs, resume=manifest)
            assert engine.stats.resumed_done == 3
            engine.run(specs)  # no resume carry-over
            assert engine.stats.resumed_done == 3
        finally:
            engine.close()

    def test_resume_with_gcd_store_reexecutes(self, tmp_path):
        # An entry GC'd between the runs must simply re-execute: resume
        # never trusts the manifest over the store.
        store = ResultStore(tmp_path / "store")
        specs = cells()
        manifest = self._record_partial(tmp_path, specs, store)
        empty = ResultStore(tmp_path / "fresh-store")
        engine = Engine(pool="serial", store=empty, memory_cache={})
        try:
            batch = engine.run(specs, resume=manifest)
        finally:
            engine.close()
        assert all(o.ok for o in batch)
        assert engine.stats.resumed_done == 3  # manifest still says done
        assert engine.stats.simulations == 3  # ...but the store rules
        assert engine.stats.store_hits == 0

    def test_resume_recommit_ignores_orphaned_lease(self, tmp_path):
        # A writer from an older checkout, SIGKILL'd mid-batch, leaves a
        # fresh per-shard ``.lease`` behind; the resume's re-commit must
        # neither wait on it nor double-write.
        store = ResultStore(tmp_path / "store")
        specs = cells(benchmarks=("db", "jess"))
        manifest = self._record_partial(tmp_path, specs[:3], store)
        for spec in specs[3:]:
            shard = store.shard_for(spec.cache_key()[2])
            shard.mkdir(parents=True, exist_ok=True)
            (shard / ".lease").touch()
        engine = Engine(pool="serial", store=store, memory_cache={})
        started = time.monotonic()
        try:
            batch = engine.run(specs, resume=manifest)
        finally:
            engine.close()
        assert all(o.ok for o in batch)
        assert engine.stats.simulations == 3
        assert len(store) == len(specs)
        # Three cells simulate in well under a second together; waiting
        # out a fresh lease took 10 s per shard.
        assert time.monotonic() - started < 5.0


class TestCloseRobustness:
    def test_close_idempotent_when_pool_broken(self):
        # Regression: closing an engine whose pool workers already died
        # must not raise — close() falls back to fail-fast and, at
        # worst, abandons the backend.
        engine = Engine(pool="local:1", use_cache=False)
        engine.pool.start()
        # The executor forks its worker on the first submission.
        engine.pool.submit_chunk(((), None, None)).result(timeout=60)
        for process in list(engine.pool._executor._processes.values()):
            process.kill()
            process.join(timeout=10)
        engine.close()
        engine.close()  # idempotent

    def test_close_safe_on_half_constructed_engine(self):
        engine = Engine.__new__(Engine)  # __init__ never ran
        engine.close()  # must not raise


class TestRecorderHardening:
    def test_records_carry_schema_version(self, tmp_path):
        from repro.obs.recorder import SCHEMA_VERSION

        recorder = FlightRecorder(tmp_path / "run.jsonl")
        engine = Engine(
            pool="serial", use_cache=False, memory_cache={},
            recorder=recorder,
        )
        try:
            engine.run(cells(schemes=("baseline",)))
        finally:
            engine.close()
        records = FlightRecorder.read(recorder.path)
        assert records
        assert all(r["schema"] == SCHEMA_VERSION for r in records)

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "run.jsonl")
        engine = Engine(
            pool="serial", use_cache=False, memory_cache={},
            recorder=recorder,
        )
        try:
            engine.run(cells(schemes=("baseline",)))
        finally:
            engine.close()
        # Simulate a SIGKILL mid-write: chop the file mid-record.
        raw = recorder.path.read_bytes()
        recorder.path.write_bytes(raw[: len(raw) - 25])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = FlightRecorder.read(recorder.path)
        assert records  # everything before the torn line survives
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )
        # And replay still partitions what it can see.
        replay = FlightRecorder.replay(recorder.path)
        assert replay.path == recorder.path
