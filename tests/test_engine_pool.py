"""Persistent-pool and warm-start behaviour of the parallel engine.

Covers the engine-scaling contract (docs/INTERNALS.md §13): the worker
pool survives across ``run`` calls, workers pre-build their benchmarks
once, a second batch compiles no runner again, batched store writes
land, and none of it perturbs results — parallel warm-worker output is
bit-identical to serial cold output.
"""

from __future__ import annotations

import pytest

from repro.obs.events import Telemetry
from repro.sim import schedule as schedule_mod
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.engine import Engine
from repro.sim.store import ResultStore
from repro.vm import blockjit

BUDGET = 60_000


def config(budget: int = BUDGET, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(max_instructions=budget, **kwargs)


def suite_cells(cfg) -> list:
    return [
        RunSpec(name, scheme, cfg)
        for name in ("db", "jess")
        for scheme in ("baseline", "hotspot")
    ]


class TestPersistentPool:
    def test_pool_survives_across_batches(self):
        telemetry = Telemetry()
        cells = suite_cells(config())
        with Engine(
            jobs=2, use_cache=False, memory_cache={}, telemetry=telemetry
        ) as engine:
            engine.run(cells)
            engine.run(cells)
        counts = telemetry.log.counts()
        assert counts.get("pool_spawned") == 1
        assert counts.get("pool_reused") == 1
        assert engine.stats.pools_spawned == 1
        assert engine.stats.pool_reuses == 1

    def test_workers_warm_once_per_pool(self):
        # Warm-up happens at pool spawn, once per worker — never per
        # batch.  (A worker ships its warm-up stats with the first chunk
        # it completes, which on a loaded box may fall in the second
        # batch, so the bound is per pool, not per run() call.)
        telemetry = Telemetry()
        cells = suite_cells(config())
        with Engine(
            jobs=2, use_cache=False, memory_cache={}, telemetry=telemetry
        ) as engine:
            engine.run(cells)
            engine.run(cells)
        warmups = telemetry.log.by_name("worker_warmup")
        assert 1 <= len(warmups) <= engine.jobs
        for event in warmups:
            assert event.args["benchmarks"] == 2
            assert event.args["errors"] == 0
            # Warm-up builds programs only; runners compile on first
            # execution, so it no longer reports code-cache compiles.
            assert "fused_compiles" not in event.args
        assert telemetry.log.counts().get("pool_spawned") == 1

    def test_warm_parallel_results_match_serial_cold(self):
        # The whole point of the contract: worker-side memoised builds,
        # per-worker runner compiles, and chunked submission must not perturb a single
        # bit of the results.
        cells = suite_cells(config())
        serial = Engine(jobs=1, use_cache=False, memory_cache={}).run(cells).values()
        with Engine(jobs=2, use_cache=False, memory_cache={}) as engine:
            first = engine.run(cells).values()
            second = engine.run(cells).values()  # warm pool, memoised builds
        assert first == serial
        assert second == serial

    def test_close_is_idempotent_and_pool_respawns(self):
        cells = suite_cells(config())
        engine = Engine(jobs=2, use_cache=False, memory_cache={})
        engine.run(cells)
        engine.close()
        engine.close()
        engine.run(cells)  # respawns transparently
        assert engine.stats.pools_spawned == 2
        engine.close()

    def test_batched_store_writes_land(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cells = suite_cells(config())
        with Engine(jobs=2, store=store, memory_cache={}) as engine:
            engine.run(cells)
        assert len(store) == len(cells)
        # A fresh engine over the same store serves everything from disk.
        reader = Engine(store=store, memory_cache={})
        reader.run(cells)
        assert reader.stats.store_hits == len(cells)
        assert reader.stats.simulations == 0

    def test_chunk_size_knob_is_honoured(self):
        cells = suite_cells(config())
        with Engine(
            jobs=2, use_cache=False, memory_cache={}, chunk_size=2
        ) as engine:
            assert schedule_mod.plan_round(
                list(range(len(cells))), engine.pool.workers, engine.chunk_size
            ) == [[0, 1], [2, 3]]
            results = engine.run(cells).values()
        assert all(r is not None for r in results)


class TestSerialWarmStart:
    def test_second_batch_refuses_nothing(self):
        # Serial warm start rides the process-wide blockjit cache: after
        # one batch every method runner is compiled, so a second batch on
        # a kept-alive engine must not compile again.
        engine = Engine(jobs=1, use_cache=False, memory_cache={})
        cells = suite_cells(config())
        engine.run(cells)
        compiles = blockjit.CACHE_STATS["compiles"]
        hits = blockjit.CACHE_STATS["hits"]
        engine.run(cells)
        assert blockjit.CACHE_STATS["compiles"] == compiles
        assert blockjit.CACHE_STATS["hits"] > hits


class TestCodeCacheBound:
    def test_eviction_and_recompile_stay_bit_identical(self, monkeypatch):
        # Shrink the code cache so one run constantly evicts and
        # recompiles runners; the recompiled runners must reproduce the
        # unbounded run and the reference kernel exactly.
        fast = RunSpec("db", "hotspot", config(sim_kernel="fast"))
        baseline = execute(fast)
        monkeypatch.setattr(blockjit, "CACHE_LIMIT", 1)
        blockjit.clear_cache()
        evictions = blockjit.CACHE_STATS["evictions"]
        thrashed = execute(fast)
        assert blockjit.CACHE_STATS["evictions"] > evictions
        assert thrashed == baseline
        reference = execute(
            RunSpec("db", "hotspot", config(sim_kernel="reference"))
        )
        assert thrashed == reference

    def test_cache_counters_surface_in_metrics(self):
        telemetry = Telemetry()
        execute(RunSpec("db", "baseline", config()), telemetry=telemetry)
        info = blockjit.cache_info()
        for name in ("compiles", "hits", "evictions", "size", "limit"):
            gauge = telemetry.metrics.gauge(f"blockjit.cache_{name}")
            assert gauge.value == info[name]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
