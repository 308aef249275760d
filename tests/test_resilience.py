"""Resilience suite (docs/INTERNALS.md §16).

* **crash-safe re-runs** — each simulated result is written through to
  the result store as its cell settles, so re-running a killed batch
  re-executes only the never-finished cells (done cells come back from
  the store under the same fingerprints), with or without a flight
  recorder, and survives orphaned store leases and GC'd entries;
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
    """Re-running a batch is the resume: each result is written through
    to the store as it settles, so a re-run simulates only the cells
    the first run never finished."""

    def _run_partial(self, done_specs, store):
        engine = Engine(pool="serial", store=store, memory_cache={})
        try:
            batch = engine.run(done_specs)
        finally:
            engine.close()
        assert all(o.ok for o in batch)

    def test_store_written_through_without_recorder(self, tmp_path):
        # A SIGKILL between two cells must not lose the first one: when
        # cell k starts, the k cells before it are already committed,
        # with no flight recorder attached.
        from repro.sim.driver import execute

        store = ResultStore(tmp_path / "store")
        seen = []

        def runner(spec):
            seen.append(len(store))
            return execute(spec)

        engine = Engine(
            pool="serial", store=store, memory_cache={}, runner=runner
        )
        assert engine.recorder is None
        try:
            engine.run(cells())
        finally:
            engine.close()
        assert seen == [0, 1, 2]
        assert len(store) == 3

    def test_rerun_skips_done_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = cells(benchmarks=("db", "jess"))  # 6 cells
        self._run_partial(specs[:3], store)
        engine = Engine(pool="serial", store=store, memory_cache={})
        try:
            batch = engine.run(specs)
        finally:
            engine.close()
        assert all(o.ok for o in batch)
        # The store-hit gate: zero re-simulation of done cells.
        assert engine.stats.store_hits == 3
        assert engine.stats.simulations == 3

    def test_resume_with_gcd_store_reexecutes(self, tmp_path):
        # An entry GC'd between the runs simply re-executes.
        store = ResultStore(tmp_path / "store")
        specs = cells()
        self._run_partial(specs, store)
        store.path_for(*specs[0].cache_key()).unlink()
        engine = Engine(pool="serial", store=store, memory_cache={})
        try:
            batch = engine.run(specs)
        finally:
            engine.close()
        assert all(o.ok for o in batch)
        assert engine.stats.simulations == 1
        assert engine.stats.store_hits == 2
        assert len(store) == 3

    def test_resume_recommit_ignores_orphaned_lease(self, tmp_path):
        # A writer from an older checkout, SIGKILL'd mid-batch, leaves a
        # fresh per-shard ``.lease`` behind; the re-run's commits must
        # neither wait on it nor double-write.
        store = ResultStore(tmp_path / "store")
        specs = cells(benchmarks=("db", "jess"))
        self._run_partial(specs[:3], store)
        for spec in specs[3:]:
            shard = store.shard_for(spec.cache_key()[2])
            shard.mkdir(parents=True, exist_ok=True)
            (shard / ".lease").touch()
        engine = Engine(pool="serial", store=store, memory_cache={})
        started = time.monotonic()
        try:
            batch = engine.run(specs)
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
