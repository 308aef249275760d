"""Backend conformance suite + concurrent-writer store stress.

Every registered :class:`repro.sim.pools.Pool` backend must honour the
same contract (docs/INTERNALS.md §14): bit-identical results to the
serial reference on a differential grid, crash-rebuild recovery where
the capability flags claim it, warm-pool reuse across batches, and a
result identity (``ExperimentConfig.fingerprint()``) that never sees
*where* a cell executed.  The SSH backend runs here through its
sshd-less loopback transport — same wire protocol, framed pickles and
all, no network.

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
from repro.sim.options import ExecutionOptions
from repro.sim.pools import (
    LocalProcessPool,
    SerialPool,
    SSHPool,
    available_backends,
    make_pool,
    parse_backend_spec,
)
from repro.sim.pools.ssh import loopback_transport, parse_hostfile
from repro.sim.store import ResultStore

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
BUDGET = 60_000

#: One spec per registered backend kind, loopback for ssh.  Growing the
#: registry without growing this list fails test_registry_is_covered.
CONFORMANCE_SPECS = ("serial", "local:2", "ssh-loopback:2")


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
        Engine(pool="serial", use_cache=False, memory_cache={})
        .run(grid(config()))
        .values()
    )


class TestRegistry:
    def test_spec_parsing(self):
        assert parse_backend_spec("serial") == ("serial", None)
        assert parse_backend_spec("local:4") == ("local", "4")
        assert parse_backend_spec("ssh:hosts.txt") == ("ssh", "hosts.txt")
        assert parse_backend_spec("ssh:user@h1:hosts") == (
            "ssh", "user@h1:hosts"
        )

    def test_factories_produce_the_right_pools(self, tmp_path):
        assert isinstance(make_pool("serial"), SerialPool)
        local = make_pool("local:3")
        assert isinstance(local, LocalProcessPool)
        assert local.workers == 3
        loop = make_pool("ssh-loopback:2")
        assert isinstance(loop, SSHPool)
        assert loop.workers == 2
        hostfile = tmp_path / "hosts"
        hostfile.write_text("alpha:2\nbeta # one slot\n")
        ssh = make_pool(f"ssh:{hostfile}")
        assert isinstance(ssh, SSHPool)
        assert ssh.hosts == [("alpha", 2), ("beta", 1)]
        assert ssh.workers == 3

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_pool("slurm:4")
        with pytest.raises(ValueError, match="hostfile"):
            make_pool("ssh")
        with pytest.raises(ValueError, match="serial"):
            make_pool("serial:4")

    def test_hostfile_parsing(self, tmp_path):
        hostfile = tmp_path / "hosts"
        hostfile.write_text(
            "# fleet\nnode1:4\nnode2\n\nuser@node3:2  # comment\n"
        )
        assert parse_hostfile(hostfile) == [
            ("node1", 4), ("node2", 1), ("user@node3", 2)
        ]
        empty = tmp_path / "empty"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no hosts"):
            parse_hostfile(empty)

    def test_conformance_list_covers_the_registry(self):
        # Every registered backend kind must appear in the conformance
        # grid ("ssh" is exercised via its loopback transport, so the
        # ssh-loopback row covers it).  A new backend registered without
        # a conformance row fails here.
        kinds = {parse_backend_spec(s)[0] for s in CONFORMANCE_SPECS}
        for name in available_backends():
            covered = name in kinds or (
                name == "ssh" and "ssh-loopback" in kinds
            )
            assert covered, f"backend {name!r} has no conformance row"


class TestConformance:
    """Every backend against the serial ground truth."""

    @pytest.mark.parametrize("spec", CONFORMANCE_SPECS)
    def test_bit_identical_to_serial(self, spec, serial_reference):
        with Engine(pool=spec, use_cache=False, memory_cache={}) as engine:
            produced = engine.run(grid(config())).values()
        assert produced == serial_reference

    @pytest.mark.parametrize(
        "spec", [s for s in CONFORMANCE_SPECS if s != "serial"]
    )
    def test_warm_pool_reused_across_batches(self, spec):
        # (The serial backend has nothing to spawn: cells run on the
        # engine's in-process path and these counters stay 0.)
        cells = grid(config())
        with Engine(pool=spec, use_cache=False, memory_cache={}) as engine:
            engine.run(cells)
            engine.run(cells)
        assert engine.stats.pools_spawned == 1
        assert engine.stats.pool_reuses == 1

    @pytest.mark.parametrize(
        "spec", [s for s in CONFORMANCE_SPECS if s != "serial"]
    )
    def test_crash_rebuild_recovers_and_matches(
        self, spec, serial_reference
    ):
        pool = make_pool(spec)
        assert pool.capabilities.rebuild
        plan = FaultPlan(seed=7, worker_crash=0.3)
        with Engine(
            pool=pool,
            use_cache=False,
            memory_cache={},
            fault_plan=plan,
            max_retries=8,
            max_pool_rebuilds=20,
        ) as engine:
            produced = engine.run(grid(config())).values()
        stats = engine.stats
        # Recovery takes one of two shapes: a whole-pool rebuild
        # (local backend, or every ssh host dead at once), or — on the
        # per-host ssh backend — surgical rerouting of the dead host's
        # cells onto survivors (docs/INTERNALS.md §16), which never
        # counts as a rebuild.
        assert stats.worker_crashes > 0 or stats.hosts_down > 0
        assert stats.pool_rebuilds > 0 or stats.cells_rerouted > 0
        # worker_crash kills workers between cells, never mid-result —
        # the recovered batch is still bit-identical.
        assert produced == serial_reference

    def test_serial_pool_never_honours_worker_crash(self):
        # A worker_crash injection requires a disposable process; the
        # in-process backend must strip it rather than os._exit the
        # test runner.
        plan = FaultPlan(seed=7, worker_crash=1.0)
        engine = Engine(
            pool="serial", use_cache=False, memory_cache={}, fault_plan=plan
        )
        batch = engine.run([RunSpec("db", "baseline", config())])
        assert batch.outcomes[0].ok
        assert engine.stats.worker_crashes == 0

    def test_shared_store_across_backends(self, tmp_path):
        # A result computed over the loopback-ssh backend must be served
        # from the store to a serial engine: the fingerprint never sees
        # the execution location.
        store = ResultStore(tmp_path / "store")
        cells = grid(config())
        with Engine(
            pool="ssh-loopback:2", store=store, memory_cache={}
        ) as writer:
            writer.run(cells)
        assert len(store) == len(cells)
        reader = Engine(pool="serial", store=store, memory_cache={})
        reader.run(cells)
        assert reader.stats.store_hits == len(cells)
        assert reader.stats.simulations == 0


class TestPoolLifecycle:
    @pytest.mark.parametrize("spec", CONFORMANCE_SPECS)
    def test_start_is_idempotent_and_close_revives(self, spec):
        pool = make_pool(spec)
        assert pool.start() is True
        assert pool.alive
        assert pool.start() is False  # idempotent
        pool.close()
        assert not pool.alive
        pool.close()  # close is idempotent too
        assert pool.start() is True
        pool.close()

    def test_submit_on_closed_pool_raises_broken(self):
        pool = make_pool("serial")
        with pytest.raises(Exception) as excinfo:
            pool.submit_chunk(((), None, None))
        assert isinstance(excinfo.value, pool.broken_exceptions)

    def test_loopback_worker_death_is_a_broken_pool(self):
        # Kill the worker processes under the pool; the next chunk must
        # surface a broken_exceptions member (pipe EOF → PoolBrokenError),
        # which is what the engine's rebuild machinery keys on.
        pool = SSHPool([("loopback", 1)], transport=loopback_transport)
        pool.start()
        try:
            for breaker in pool._breakers.values():
                for worker in breaker.workers:
                    worker.proc.kill()
                    worker.proc.wait(timeout=10)
            cells = ((0, RunSpec("db", "baseline", config()), 1),)
            future = pool.submit_chunk((cells, None, None))
            error = future.exception(timeout=30)
            assert isinstance(error, pool.broken_exceptions)
        finally:
            pool.close(fail_fast=True)


class TestExecutionOptions:
    def test_backend_resolution(self):
        assert ExecutionOptions().resolved_backend() == "serial"
        assert ExecutionOptions(jobs=4).resolved_backend() == "local:4"
        assert ExecutionOptions(
            backend="ssh-loopback:2", jobs=4
        ).resolved_backend() == "ssh-loopback:2"

    def test_argparse_round_trip(self):
        import argparse

        parser = argparse.ArgumentParser()
        ExecutionOptions.add_arguments(parser)
        args = parser.parse_args(
            [
                "--backend", "local:3", "--store-dir", "/tmp/s",
                "--chunk-size", "2", "--max-pool-rebuilds", "5",
            ]
        )
        options = ExecutionOptions.from_args(args)
        assert options.backend == "local:3"
        assert options.store_dir == "/tmp/s"
        assert options.chunk_size == 2
        assert options.max_pool_rebuilds == 5
        assert not options.no_store

    def test_engine_consumes_options(self, tmp_path):
        from repro.sim.experiment import make_engine

        options = ExecutionOptions(
            backend="local:3",
            chunk_size=2,
            max_pool_rebuilds=7,
            store_dir=str(tmp_path / "store"),
        )
        engine = make_engine(options=options)
        assert isinstance(engine.pool, LocalProcessPool)
        assert engine.jobs == 3
        assert engine.chunk_size == 2
        assert engine.max_pool_rebuilds == 7
        assert engine.store is not None
        assert engine.store.root == tmp_path / "store"

    def test_explicit_arguments_beat_options(self):
        from repro.sim.experiment import make_engine

        options = ExecutionOptions(backend="local:3", chunk_size=2)
        engine = make_engine(jobs=4, options=options)
        assert isinstance(engine.pool, LocalProcessPool)
        assert engine.jobs == 4
        assert engine.chunk_size == 2

    def test_explicit_default_valued_arguments_beat_options(self):
        # An explicit ``jobs`` equal to its default value still wins
        # over the options bundle's 2 workers.
        from repro.sim.experiment import make_engine

        options = ExecutionOptions(jobs=2, max_pool_rebuilds=7)
        engine = make_engine(jobs=1, options=options)
        assert isinstance(engine.pool, SerialPool)
        assert engine.jobs == 1
        assert engine.max_pool_rebuilds == 7
        from_options = make_engine(options=options)
        assert isinstance(from_options.pool, LocalProcessPool)
        assert from_options.jobs == 2
        assert Engine().max_pool_rebuilds == 3

    def test_make_engine_keeps_the_options_backend(self):
        # The `repro all --jobs 2` path: make_engine passes its own
        # default jobs, which must not shadow the options' backend.
        from repro.sim.experiment import make_engine

        engine = make_engine(options=ExecutionOptions(jobs=2))
        assert isinstance(engine.pool, LocalProcessPool)
        assert engine.jobs == 2

    def test_fingerprint_never_sees_execution_knobs(self):
        # The backend is a location, not an identity: no ExecutionOptions
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
            "max_pool_rebuilds", "pool", "schedule", "cost_model",
            "cost_model_dir",
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

# Every writer commits the same 16 cells (full-batch put_many through
# the per-shard lease path) for several rounds: maximal same-key and
# same-shard contention.  Fingerprints spread over 16 shards.
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
        # No entry lost, none corrupt, no debris, no leaked lease.
        assert len(store) == 16
        assert store.corrupt_files() == []
        assert store.stale_tmp_files() == []
        assert sorted(p.name for p in store.root.glob("*/.lease")) == []
        for fingerprint in (f"{i:x}" * 64 for i in range(16)):
            loaded = store.get("db", "baseline", fingerprint)
            assert loaded is not None
            assert store.shard_for(fingerprint).is_dir()
        assert store.quarantined == 0

    def test_stale_lease_is_taken_over(self, tmp_path):
        from repro.sim.store import LEASE_STALE_S

        store = ResultStore(tmp_path)
        fingerprint = "ab" * 32
        shard = store.shard_for(fingerprint)
        shard.mkdir(parents=True)
        lease = shard / ".lease"
        lease.write_text("pid=99999 ts=0\n")
        old = lease.stat().st_mtime - (LEASE_STALE_S + 5)
        os.utime(lease, (old, old))
        assert store.stale_lease_files() == [lease]
        # A writer takes the dead lease over instead of waiting it out.
        import repro.sim.driver as driver

        result = driver.RunResult(
            benchmark="db", scheme="baseline", instructions=1,
            cycles=1.0, ipc=1.0, l1d_energy_nj=0.0, l2_energy_nj=0.0,
            l1d_breakdown={}, l2_breakdown={}, memory_nj=0.0,
            l1d_miss_rate=0.0, l2_miss_rate=0.0,
            branch_mispredict_rate=0.0, n_hotspots=0,
            instructions_in_hotspots=0,
        )
        import time as time_mod

        started = time_mod.monotonic()
        store.put("db", "baseline", fingerprint, result)
        assert time_mod.monotonic() - started < 5.0  # no LEASE_WAIT stall
        assert store.lease_timeouts == 0
        assert not lease.exists()  # released after the commit

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
