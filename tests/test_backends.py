"""Execution-width conformance suite + concurrent-writer store stress.

Every ``jobs`` value must honour the same contract (docs/INTERNALS.md
§14): bit-identical results to the serial reference on a differential
grid, a worker death that settles its cells and a re-run that completes
them, warm-pool reuse across batches, and a result identity
(``ExperimentConfig.fingerprint()``) that never sees *where* a cell
executed.

The store side: ≥4 concurrent writer processes hammering overlapping
cells of a sharded :class:`~repro.sim.store.ResultStore` must leave no
corrupt, torn, or lost entries behind.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec
from repro.sim.engine import Engine
from repro.sim.experiment import run_suite
from repro.sim.options import ExecutionOptions
from repro.sim.pools.local import BROKEN_EXCEPTIONS, LocalProcessPool
from repro.sim.store import ResultStore
from repro.sim.sweeps import sweep_parameter

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
BUDGET = 60_000

#: The in-process path and the process pool, with ids naming each as
#: the CLI's stats line does (``backend=serial:1`` / ``local:2``).
JOBS = pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "local:2"])
#: The process pool alone.
POOL_JOBS = pytest.mark.parametrize("jobs", [2], ids=["local:2"])


def config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(max_instructions=BUDGET, **kwargs)


def grid(cfg) -> list:
    return [
        RunSpec(name, scheme, cfg)
        for name in ("db", "jess")
        for scheme in ("baseline", "hotspot")
    ]


@pytest.fixture(scope="module")
def serial_reference():
    """The differential grid's ground truth, computed once per module."""
    return (
        Engine(use_cache=False, memory_cache={})
        .run(grid(config()))
        .values()
    )


class TestConformance:
    """Every ``jobs`` against the serial ground truth."""

    @JOBS
    def test_bit_identical_to_serial(self, jobs, serial_reference):
        with Engine(jobs=jobs, use_cache=False, memory_cache={}) as engine:
            produced = engine.run(grid(config())).values()
        assert produced == serial_reference

    @POOL_JOBS
    def test_warm_pool_reused_across_batches(self, jobs):
        # (jobs=1 has nothing to spawn: cells run on the engine's
        # in-process path and these counters stay 0.)
        cells = grid(config())
        with Engine(jobs=jobs, use_cache=False, memory_cache={}) as engine:
            engine.run(cells)
            engine.run(cells)
        assert engine.stats.pools_spawned == 1
        assert engine.stats.pool_reuses == 1

    @POOL_JOBS
    def test_crash_settles_and_rerun_matches(
        self, jobs, serial_reference, tmp_path
    ):
        # Which cells a crash interrupts is a scheduling fact, so only
        # the settle rules are asserted: the re-run without the plan
        # simulates exactly the cells the crashed batch did not finish.
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan(seed=7, worker_crash=0.3)
        with Engine(
            jobs=jobs,
            store=store,
            memory_cache={},
            fault_plan=plan,
            failure_policy="skip",
        ) as engine:
            crashed = engine.run(grid(config()))
        assert engine.stats.worker_crashes > 0
        assert {o.status for o in crashed.failures} == {"crashed"}
        with Engine(jobs=jobs, store=store, memory_cache={}) as engine:
            produced = engine.run(grid(config())).values()
        assert engine.stats.simulations == len(crashed.failures)
        assert engine.stats.store_hits == len(crashed.ok)
        # worker_crash kills workers between cells, never mid-result —
        # the completed grid is still bit-identical.
        assert produced == serial_reference

    def test_serial_pool_never_honours_worker_crash(self):
        # A worker_crash injection requires a disposable process; the
        # in-process serial path must never os._exit the test runner.
        plan = FaultPlan(seed=7, worker_crash=1.0)
        engine = Engine(use_cache=False, memory_cache={}, fault_plan=plan)
        batch = engine.run([RunSpec("db", "baseline", config())])
        assert batch.outcomes[0].ok
        assert engine.stats.worker_crashes == 0

    def test_shared_store_across_backends(self, tmp_path):
        # A result computed in the process pool must be served from the
        # store to a serial engine: the fingerprint never sees the
        # execution location.
        store = ResultStore(tmp_path / "store")
        cells = grid(config())
        with Engine(jobs=2, store=store, memory_cache={}) as writer:
            writer.run(cells)
        assert len(store) == len(cells)
        reader = Engine(store=store, memory_cache={})
        reader.run(cells)
        assert reader.stats.store_hits == len(cells)
        assert reader.stats.simulations == 0

    def test_simulated_entries_carry_timing_meta(self, tmp_path):
        # perf/harness.py attributes pool set-up time from every entry's
        # measured seconds and executor: every jobs value must write them.
        import json
        import socket

        store = ResultStore(tmp_path / "store")
        pooled, serial = grid(config()), grid(config(seed=7))
        with Engine(jobs=2, store=store, memory_cache={}) as engine:
            engine.run(pooled)
        Engine(store=store, memory_cache={}).run(serial)
        executors = {}
        for entry in store.entries():
            meta = json.loads(entry.path.read_text())["meta"]
            assert isinstance(meta["elapsed_s"], float), meta
            assert meta["elapsed_s"] >= 0, meta
            host, _, pid = meta["executed_by"].partition("#")
            assert host == socket.gethostname() and pid.isdigit(), meta
            executors.setdefault(entry.fingerprint, set()).add(int(pid))
        assert len(executors) == 2
        fingerprint = serial[0].cache_key()[2]
        assert executors[fingerprint] == {os.getpid()}
        assert os.getpid() not in executors[pooled[0].cache_key()[2]]


class TestPoolLifecycle:
    @POOL_JOBS
    def test_start_is_idempotent_and_close_revives(self, jobs):
        pool = LocalProcessPool(jobs)
        assert pool.start() is True
        assert pool.alive
        assert pool.start() is False  # idempotent
        pool.close()
        assert not pool.alive
        pool.close()  # close is idempotent too
        assert pool.start() is True
        pool.close()

    def test_submit_on_closed_pool_raises_broken(self):
        pool = LocalProcessPool(1)  # never started: spawns nothing
        with pytest.raises(Exception) as excinfo:
            pool.submit_chunk(((), None, None))
        assert isinstance(excinfo.value, BROKEN_EXCEPTIONS)


class TestExecutionOptions:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: ExecutionOptions(jobs=0),
            lambda: run_suite(jobs=0),
            lambda: sweep_parameter("hot_threshold", [2], jobs=0),
        ],
        ids=["options", "run_suite", "sweep_parameter"],
    )
    def test_library_calls_name_the_jobs_field(self, call):
        # A library caller passed ``jobs``, not a command-line flag.
        with pytest.raises(ValueError, match=r"^jobs must be at least 1"):
            call()

    def test_argparse_round_trip(self):
        import argparse

        parser = argparse.ArgumentParser()
        ExecutionOptions.add_arguments(parser)
        args = parser.parse_args(["--jobs", "3", "--store-dir", "/tmp/s"])
        options = ExecutionOptions.from_args(args)
        assert options.jobs == 3
        assert options.store_dir == "/tmp/s"
        assert not options.no_store

    def test_engine_consumes_options(self, tmp_path):
        from repro.sim.experiment import make_engine

        options = ExecutionOptions(jobs=3, store_dir=str(tmp_path / "store"))
        engine = make_engine(options=options)
        assert engine.backend == "local" and engine.jobs == 3
        assert isinstance(engine.pool, LocalProcessPool)
        assert engine.pool.workers == 3
        assert engine.store is not None
        assert engine.store.root == tmp_path / "store"
        serial = make_engine()
        assert serial.backend == "serial" and serial.pool is None

    @pytest.mark.parametrize("argv, name", [(["--jobs", "0"], "--jobs")])
    def test_out_of_range_arguments_raise_before_a_batch(
        self, argv, name, capsys
    ):
        # One ``error:`` line naming the argument and exit status 2,
        # like a bad --inject plan; no traceback and no cell runs.
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", "--no-store", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert name in lines[0]

    @pytest.mark.parametrize(
        "keywords, name",
        [
            ({"jobs": 0}, "jobs"),
            ({"jobs": -2}, "jobs"),
        ],
    )
    def test_engine_rejects_out_of_range_keywords(self, keywords, name):
        with pytest.raises(ValueError, match=name):
            Engine(**keywords)

    def test_fingerprint_never_sees_execution_knobs(self):
        # Where a cell runs is not its identity: no ExecutionOptions
        # field may leak into the config fingerprint or the cache key.
        cfg = config()
        fingerprint = cfg.fingerprint()
        spec_serial = RunSpec("db", "baseline", cfg)
        assert spec_serial.cache_key() == RunSpec(
            "db", "baseline", cfg
        ).cache_key()
        from repro.sim.config import canonicalize

        canonical = canonicalize(cfg)
        for field in (
            "backend", "jobs", "store_dir", "no_store", "chunk_size",
            "max_pool_rebuilds", "pool",
        ):
            assert field not in str(canonical)
        assert cfg.fingerprint() == fingerprint


# ---------------------------------------------------------------------------
# Concurrent writers across shards: ≥4 processes, overlapping cells
# ---------------------------------------------------------------------------

STRESS_WRITER_SCRIPT = """
import sys
from repro.sim.driver import RunResult
from repro.sim.store import ResultStore

store = ResultStore(sys.argv[1])
writer_id = int(sys.argv[2])

def result(tag):
    return RunResult(
        benchmark=tag, scheme="baseline", instructions=1000,
        cycles=1500.0, ipc=0.66, l1d_energy_nj=1.0, l2_energy_nj=2.0,
        l1d_breakdown={}, l2_breakdown={}, memory_nj=0.5,
        l1d_miss_rate=0.01, l2_miss_rate=0.02,
        branch_mispredict_rate=0.03, n_hotspots=0,
        instructions_in_hotspots=0,
    )

# Every writer commits the same 16 cells (full-batch put_many) for
# several rounds: maximal same-key and same-shard contention.
# Fingerprints spread over 16 shards.
cells = [
    ("db", "baseline", f"{i:x}" * 64, result("db")) for i in range(16)
]
for round in range(10):
    store.put_many(cells)
    for benchmark, scheme, fingerprint, expected in cells:
        loaded = store.get(benchmark, scheme, fingerprint)
        assert loaded is not None, f"lost entry in round {round}"
        assert loaded == expected, f"torn entry in round {round}"
assert store.quarantined == 0, "reader quarantined a concurrent write"
print("STRESS_OK", writer_id)
"""

N_STRESS_WRITERS = 4


class TestConcurrentWriterStress:
    def test_four_writers_no_corrupt_or_lost_entries(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        writers = [
            subprocess.Popen(
                [
                    sys.executable, "-c", STRESS_WRITER_SCRIPT,
                    str(tmp_path), str(index),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for index in range(N_STRESS_WRITERS)
        ]
        for index, writer in enumerate(writers):
            out, err = writer.communicate(timeout=300)
            assert writer.returncode == 0, err
            assert f"STRESS_OK {index}" in out
        store = ResultStore(tmp_path)
        # No entry lost, none corrupt, no debris, no lock file.
        assert len(store) == 16
        assert store.corrupt_files() == []
        assert store.stale_tmp_files() == []
        assert sorted(p.name for p in store.root.glob("*/.lease")) == []
        for fingerprint in (f"{i:x}" * 64 for i in range(16)):
            loaded = store.get("db", "baseline", fingerprint)
            assert loaded is not None
            assert store.shard_for(fingerprint).is_dir()
        assert store.quarantined == 0

    def test_orphaned_lease_does_not_delay_a_put(self, tmp_path):
        # Older checkouts took a per-shard ``.lease`` file around each
        # commit; a writer killed while holding one left it behind.  A
        # fresh one must not make a put wait: the store neither reads
        # nor creates leases.
        import time as time_mod

        import repro.sim.driver as driver

        store = ResultStore(tmp_path)
        fingerprint = "ab" * 32
        shard = store.shard_for(fingerprint)
        shard.mkdir(parents=True)
        lease = shard / ".lease"
        lease.write_text("pid=99999 ts=0\n")
        result = driver.RunResult(
            benchmark="db", scheme="baseline", instructions=1,
            cycles=1.0, ipc=1.0, l1d_energy_nj=0.0, l2_energy_nj=0.0,
            l1d_breakdown={}, l2_breakdown={}, memory_nj=0.0,
            l1d_miss_rate=0.0, l2_miss_rate=0.0,
            branch_mispredict_rate=0.0, n_hotspots=0,
            instructions_in_hotspots=0,
        )
        started = time_mod.monotonic()
        store.put("db", "baseline", fingerprint, result)
        assert time_mod.monotonic() - started < 2.0
        assert store.get("db", "baseline", fingerprint) == result
        assert lease.read_text() == "pid=99999 ts=0\n"  # left alone

    def test_flat_entry_is_a_miss_but_still_listed(self, tmp_path):
        # The pre-shard flat layout has no producer left: a flat entry
        # is never read, but entries() still lists it so store_gc can
        # sweep it.
        import repro.sim.driver as driver

        store = ResultStore(tmp_path)
        fingerprint = "cd" * 32
        result = driver.RunResult(
            benchmark="db", scheme="baseline", instructions=1,
            cycles=1.0, ipc=1.0, l1d_energy_nj=0.0, l2_energy_nj=0.0,
            l1d_breakdown={}, l2_breakdown={}, memory_nj=0.0,
            l1d_miss_rate=0.0, l2_miss_rate=0.0,
            branch_mispredict_rate=0.0, n_hotspots=0,
            instructions_in_hotspots=0,
        )
        sharded_path = store.put("db", "baseline", fingerprint, result)
        flat_path = tmp_path / sharded_path.name
        os.replace(sharded_path, flat_path)
        assert store.get("db", "baseline", fingerprint) is None
        assert flat_path.exists()
        assert [entry.path for entry in store.entries()] == [flat_path]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
