"""Engine behaviour: caching layers, fan-out parity, retries, shims.

The acceptance bar for the engine redesign: parallel execution is
bit-identical to serial, cache layers compose (memory → store →
simulate) with accurate counters, `use_cache=False` bypasses both
layers in both directions, and the old entry points (`cached_run`,
`compare_schemes`, `run_suite`) behave as before.
"""

from __future__ import annotations

import json
from concurrent.futures import Future

import pytest

from repro.obs.remote import SNAPSHOT_VERSION
from repro.report import exhibits
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.engine import (
    CellExecutionError,
    CellTimeout,
    Engine,
    clear_memory_cache,
)
from repro.sim.experiment import (
    cached_run,
    clear_cache,
    compare_schemes,
    get_default_store,
    make_engine,
    run_suite,
    set_default_store,
)
from repro.sim.options import ExecutionOptions
from repro.sim.pools.base import PoolBrokenError
from repro.sim.store import ResultStore

BUDGET = 60_000


@pytest.fixture
def small_config():
    return ExperimentConfig(max_instructions=BUDGET)


@pytest.fixture
def isolated_store(tmp_path):
    """Point the experiment facade at a private tmpdir store."""
    previous = get_default_store()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    clear_memory_cache()
    try:
        yield store
    finally:
        set_default_store(previous)
        clear_memory_cache()


class TestCacheLayers:
    def test_memory_then_store_then_simulate(self, tmp_path, small_config):
        store = ResultStore(tmp_path)
        spec = RunSpec("db", "baseline", small_config)

        first_engine = Engine(store=store, memory_cache={})
        result = first_engine.run_one(spec)
        assert first_engine.stats.simulations == 1
        assert len(store) == 1

        # Same engine again: memory hit, same object.
        assert first_engine.run_one(spec) is result
        assert first_engine.stats.memory_hits == 1
        assert first_engine.stats.simulations == 1

        # Fresh memory cache: store hit, equal value.
        second_engine = Engine(store=store, memory_cache={})
        restored = second_engine.run_one(spec)
        assert second_engine.stats.store_hits == 1
        assert second_engine.stats.simulations == 0
        assert restored == result

    def test_use_cache_false_bypasses_both_layers(
        self, tmp_path, small_config
    ):
        store = ResultStore(tmp_path)
        memory = {}
        engine = Engine(
            store=store, use_cache=False, memory_cache=memory
        )
        spec = RunSpec("db", "baseline", small_config)
        engine.run_one(spec)
        engine.run_one(spec)
        # Nothing read, nothing written: two real simulations.
        assert engine.stats.simulations == 2
        assert engine.stats.memory_hits == 0
        assert engine.stats.store_hits == 0
        assert len(store) == 0
        assert memory == {}

        # And a prepopulated store is not consulted either.
        Engine(store=store, memory_cache={}).run_one(spec)
        assert len(store) == 1
        bypass = Engine(store=store, use_cache=False, memory_cache={})
        bypass.run_one(spec)
        assert bypass.stats.simulations == 1
        assert bypass.stats.store_hits == 0

    def test_duplicate_cells_deduplicated_within_batch(
        self, small_config
    ):
        engine = Engine(memory_cache={})
        spec = RunSpec("db", "baseline", small_config)
        results = engine.run(
            [spec, RunSpec("db", "baseline", small_config)]
        ).values()
        assert engine.stats.simulations == 1
        assert engine.stats.deduplicated == 1
        assert results[0] is results[1]

    def test_non_cacheable_cells_always_execute(self, small_config):
        from repro.sim.driver import make_policy

        engine = Engine(memory_cache={})
        spec = RunSpec(
            "db",
            "hotspot",
            small_config,
            policy=make_policy("hotspot", small_config),
        )
        assert not spec.cacheable
        engine.run_one(spec)
        fresh_policy_spec = RunSpec(
            "db",
            "hotspot",
            small_config,
            policy=make_policy("hotspot", small_config),
        )
        engine.run_one(fresh_policy_spec)
        assert engine.stats.simulations == 2
        assert engine.stats.memory_hits == 0

    def test_progress_callback_sees_every_cell(self, small_config):
        events = []
        engine = Engine(
            memory_cache={}, progress=lambda p: events.append(p)
        )
        cells = [
            RunSpec("db", scheme, small_config)
            for scheme in ("baseline", "bbv")
        ]
        engine.run(cells)
        assert [e.done for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        assert {e.source for e in events} == {"simulated"}
        engine.run(cells)
        assert [e.done for e in events[2:]] == [1, 2]
        assert {e.source for e in events[2:]} == {"memory"}


class TestRetryAndTimeout:
    def test_flaky_runner_retried(self, small_config):
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return execute(spec)

        engine = Engine(
            memory_cache={}, runner=flaky, max_retries=2
        )
        result = engine.run_one(RunSpec("db", "baseline", small_config))
        assert result.benchmark == "db"
        assert calls["n"] == 3
        assert engine.stats.retries == 2
        assert engine.stats.simulations == 1

    def test_persistent_failure_raises(self, small_config):
        def broken(spec):
            raise RuntimeError("always broken")

        engine = Engine(memory_cache={}, runner=broken, max_retries=1)
        with pytest.raises(CellExecutionError) as excinfo:
            engine.run_one(RunSpec("db", "baseline", small_config))
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_cell_timeout_counts_and_raises(self, small_config):
        # A 50 ms budget is far below any real simulation.
        engine = Engine(
            memory_cache={}, cell_timeout=0.05, max_retries=0
        )
        with pytest.raises(CellExecutionError) as excinfo:
            engine.run_one(
                RunSpec(
                    "db",
                    "baseline",
                    ExperimentConfig(max_instructions=2_000_000),
                )
            )
        assert isinstance(excinfo.value.cause, CellTimeout)
        assert engine.stats.timeouts == 1

    def test_timeout_swallowed_by_a_gc_callback_fires_again(
        self, small_config, monkeypatch
    ):
        # Python swallows an exception raised inside a gc callback as
        # unraisable.  The first alarm lands in such a callback; the
        # cell must still time out instead of running unbounded.
        import gc
        import sys
        import time

        from repro.sim.pools import worker as worker_mod

        def slow_gc_hook(phase, info):
            if phase == "start":
                time.sleep(0.2)

        def spinning_execute(spec, telemetry=None, fault_plan=None):
            gc.callbacks.append(slow_gc_hook)
            try:
                gc.collect()
            finally:
                gc.callbacks.remove(slow_gc_hook)
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                pass
            return "finished"

        swallowed = []
        monkeypatch.setattr(sys, "unraisablehook", swallowed.append)
        monkeypatch.setattr(worker_mod, "execute", spinning_execute)
        started = time.monotonic()
        with pytest.raises(CellTimeout):
            worker_mod.run_with_alarm(
                RunSpec("db", "baseline", small_config), 0.05
            )
        assert time.monotonic() - started < 1.5
        # Not vacuous: at least one alarm really was swallowed.
        assert any(isinstance(u.exc_value, CellTimeout) for u in swallowed)


class TestParallelParity:
    def test_jobs2_bitwise_identical_to_serial(self, small_config):
        names = ["db", "jess"]
        serial = run_suite(
            names,
            small_config,
            engine=Engine(use_cache=False, memory_cache={}),
        )
        parallel = run_suite(
            names,
            small_config,
            engine=Engine(jobs=2, use_cache=False, memory_cache={}),
        )
        for name in names:
            for scheme in ("baseline", "bbv", "hotspot"):
                a = getattr(serial.comparisons[name], scheme)
                b = getattr(parallel.comparisons[name], scheme)
                assert a == b
        for builder in (exhibits.figure3, exhibits.figure4,
                        exhibits.table4):
            serial_data = json.dumps(
                builder(serial).data, sort_keys=True
            )
            parallel_data = json.dumps(
                builder(parallel).data, sort_keys=True
            )
            assert serial_data == parallel_data


class TestExperimentFacade:
    def test_cached_run_uses_store_across_memory_clears(
        self, isolated_store, small_config
    ):
        first = cached_run("db", "baseline", small_config)
        assert len(isolated_store) == 1
        clear_memory_cache()
        second = cached_run("db", "baseline", small_config)
        assert second == first

    def test_clear_cache_wipes_both_layers(
        self, isolated_store, small_config
    ):
        cached_run("db", "baseline", small_config)
        assert len(isolated_store) == 1
        clear_cache()
        assert len(isolated_store) == 0

    def test_clear_cache_can_keep_store(
        self, isolated_store, small_config
    ):
        cached_run("db", "baseline", small_config)
        clear_cache(include_store=False)
        assert len(isolated_store) == 1

    def test_compare_schemes_via_engine(
        self, isolated_store, small_config
    ):
        comparison = compare_schemes("db", small_config)
        assert comparison.baseline.scheme == "static"
        assert comparison.bbv.scheme == "bbv"
        assert comparison.hotspot.scheme == "hotspot"
        assert len(isolated_store) == 3

    def test_sweep_parameter_routed_through_engine(
        self, isolated_store, small_config
    ):
        from repro.sim.sweeps import sweep_parameter

        points = sweep_parameter(
            "hot_threshold",
            [3, 5],
            benchmark="db",
            scheme="hotspot",
            base_config=small_config,
            max_instructions=BUDGET,
        )
        assert [p.value for p in points] == [3, 5]
        # 2 values x (scheme + baseline) = 4 cells persisted.
        assert len(isolated_store) == 4


class TestMakeEngineStore:
    # Regression: make_engine used to ignore the options' store settings
    # and write to the module default store unless the CLI had
    # reconfigured that first.
    def test_no_store_disables_the_persistent_layer(self):
        engine = make_engine(options=ExecutionOptions(no_store=True))
        assert engine.store is None

    def test_store_dir_roots_the_store(self, tmp_path):
        engine = make_engine(
            options=ExecutionOptions(store_dir=str(tmp_path / "elsewhere"))
        )
        assert engine.store is not None
        assert engine.store.root == tmp_path / "elsewhere"


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """One entry per ``ExperimentConfig.fingerprint`` call from now on."""
    calls = []
    original = ExperimentConfig.fingerprint

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(ExperimentConfig, "fingerprint", counting)
    return calls


class TestOneFingerprintPerCell:
    def test_cache_key_computed_once_per_cell(
        self, fingerprint_calls, small_config
    ):
        result = cached_run("db", "baseline", small_config, use_cache=False)
        engine = Engine(
            store=None, memory_cache={}, runner=lambda spec: result
        )
        cells = [
            RunSpec(name, "baseline", small_config)
            for name in ("db", "jess", "db")
        ]
        fingerprint_calls.clear()
        batch = engine.run(cells)
        assert all(outcome.ok for outcome in batch)
        assert engine.stats.deduplicated == 1
        # The cells share one config object: one fingerprint per batch.
        assert len(fingerprint_calls) == 1

    def test_suite_batch_fingerprints_its_config_once(
        self, fingerprint_calls, small_config
    ):
        result = cached_run("db", "baseline", small_config, use_cache=False)
        engine = Engine(
            store=None, memory_cache={}, runner=lambda spec: result
        )
        fingerprint_calls.clear()
        suite = run_suite(config=small_config, engine=engine)
        assert len(suite.comparisons) == 7
        assert engine.stats.simulations == 21
        assert len(fingerprint_calls) == 1

    def test_a_config_mutated_between_batches_gets_a_new_key(
        self, small_config
    ):
        result = cached_run("db", "baseline", small_config, use_cache=False)
        memory = {}
        ran = []

        def runner(spec):
            ran.append(spec.config.seed)
            return result

        engine = Engine(store=None, memory_cache=memory, runner=runner)
        seed = small_config.seed
        engine.run([RunSpec("db", "baseline", small_config)])
        small_config.seed += 1
        engine.run([RunSpec("db", "baseline", small_config)])
        # The memo lives for one call: the second batch fingerprints
        # the mutated config afresh and misses the first entry.
        assert ran == [seed, seed + 1]
        assert engine.stats.memory_hits == 0
        assert len(memory) == 2


def completed_future(value) -> Future:
    """A pre-resolved future (the fakes below answer synchronously)."""
    future: Future = Future()
    future.set_result(value)
    return future


class _SkewedPool:
    """A pool whose workers answer in a foreign format."""

    name = "skewed"
    workers = 2

    def __init__(self, reply):
        self.reply = reply
        self._alive = False

    def start(self, warm_benchmarks=()):
        spawned = not self._alive
        self._alive = True
        return spawned

    def submit_chunk(self, payload):
        cells = payload[0]
        return completed_future(
            self.reply([(index, "ok", None) for index, _, _ in cells])
        )

    def close(self, fail_fast=False):
        self._alive = False

    @property
    def alive(self):
        return self._alive


class _DiesOnSecondSubmit(_SkewedPool):
    """A pool that dies while the engine submits its second chunk,
    then answers every chunk after the rebuild."""

    def __init__(self):
        super().__init__(
            lambda outcomes: (None, outcomes, {"v": SNAPSHOT_VERSION})
        )
        self.submits = 0

    def submit_chunk(self, payload):
        self.submits += 1
        if self.submits == 2:
            raise PoolBrokenError("worker died mid-submission")
        return super().submit_chunk(payload)


def test_pool_death_mid_submission_resubmits_unsent_chunks(small_config):
    # Three cells on two workers go out one chunk each; the pool dies
    # on the second submit, so the third chunk was never sent.  It must
    # be resubmitted with the interrupted ones, not left unsettled.
    engine = Engine(
        pool=_DiesOnSecondSubmit(), use_cache=False, memory_cache={}
    )
    cells = [
        RunSpec(name, "baseline", small_config)
        for name in ("db", "jess", "jack")
    ]
    batch = engine.run(cells)
    assert [outcome.status for outcome in batch] == ["ok"] * 3
    assert engine.stats.worker_crashes == 1
    assert engine.stats.pool_rebuilds == 1


def test_a_pool_object_takes_its_width_from_its_workers():
    # The pool seam sets the width; an explicit jobs beside it would be
    # silently overridden, so it is refused.
    pool = _DiesOnSecondSubmit()
    engine = Engine(pool=pool)
    assert engine.jobs == pool.workers and engine.backend == "skewed"
    with pytest.raises(TypeError, match="jobs or pool"):
        Engine(jobs=4, pool=pool)


class TestReplyVersionSkew:
    @pytest.mark.parametrize("policy", ["raise", "skip", "partial"])
    @pytest.mark.parametrize(
        "reply, version",
        [
            (lambda outcomes: (None, outcomes), "None"),
            (
                lambda outcomes: (
                    None, outcomes, {"v": SNAPSHOT_VERSION + 1, "cells": None}
                ),
                str(SNAPSHOT_VERSION + 1),
            ),
        ],
        ids=["2-tuple", "foreign-version"],
    )
    def test_skewed_reply_aborts_the_batch(
        self, small_config, policy, reply, version
    ):
        engine = Engine(
            pool=_SkewedPool(reply),
            use_cache=False,
            memory_cache={},
            failure_policy=policy,
        )
        cells = [
            RunSpec(name, "baseline", small_config) for name in ("db", "jess")
        ]
        with pytest.raises(RuntimeError) as caught:
            engine.run(cells)
        assert not isinstance(caught.value, CellExecutionError)
        message = str(caught.value)
        assert "skewed" in message
        assert f"snapshot version {version}" in message
        assert f"snapshot version {SNAPSHOT_VERSION}" in message
