"""Seeded chaos suite (``-m chaos``): the fault-injection acceptance gate.

Everything here runs under an injected-fault schedule with real process
pools — worker crashes (``os._exit`` → ``BrokenProcessPool``), injected
timeouts, corrupted store entries — and asserts the engine's settle
rules: each cell runs once, every cell of a batch ends with an outcome,
a worker death settles the cells of its round as crashed, and a plain
re-run without the plan completes the batch from the store.  Which
cells a crash interrupts is a scheduling fact, so no test asserts an
exact crashed set.

CI runs this file as its own step with a hard job timeout, so a
regression that deadlocks the pool path fails fast instead of hanging
the whole workflow.
"""

from __future__ import annotations

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.faults import FaultPlan, PROBABILITY_SITES
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.engine import CellExecutionError, Engine
from repro.sim.store import ResultStore
from repro.workloads.specjvm import BENCHMARK_NAMES

pytestmark = pytest.mark.chaos

BUDGET = 25_000
SCHEMES = ("baseline", "hotspot")


def suite_cells(config):
    return [
        RunSpec(name, scheme, config)
        for name in BENCHMARK_NAMES
        for scheme in SCHEMES
    ]


class TestChaosGate:
    """7 benchmarks × 2 schemes under chaos."""

    PLAN = dict(seed=1305, worker_crash=0.2, cell_timeout=0.15,
                store_corrupt=0.5)

    def run_once(self, tmp_path, tag, **overrides):
        config = ExperimentConfig(max_instructions=BUDGET)
        plan = FaultPlan(**{**self.PLAN, **overrides})
        store = ResultStore(tmp_path / f"store-{tag}")
        with Engine(
            jobs=2,
            store=store,
            memory_cache={},
            fault_plan=plan,
            failure_policy="skip",
        ) as engine:
            batch = engine.run(suite_cells(config))
        return engine, plan, batch

    @staticmethod
    def doomed(plan):
        """The cells whose own draws fault them: never ``ok``."""
        return {
            (name, scheme)
            for name in BENCHMARK_NAMES
            for scheme in SCHEMES
            if any(
                plan.decide(site, (name, scheme, 1))
                for site in ("worker_crash", "cell_timeout")
            )
        }

    def test_degraded_batch_completes_with_per_cell_outcomes(
        self, tmp_path
    ):
        engine, plan, batch = self.run_once(tmp_path, "gate")
        assert len(batch) == len(BENCHMARK_NAMES) * len(SCHEMES)
        assert None not in batch.outcomes
        doomed = self.doomed(plan)
        for outcome in batch:
            assert outcome.status in ("ok", "failed", "timeout", "crashed")
            assert outcome.attempts == 1
            if outcome.ok:
                assert outcome.result is not None
                key = (outcome.spec.benchmark_name, outcome.spec.scheme)
                assert key not in doomed
            else:
                assert outcome.result is None and outcome.error
        assert engine.stats.failures == len(batch.failures)
        # The schedule at this seed draws crashes, so a worker died.
        assert any(
            plan.decide("worker_crash", (name, scheme, 1))
            for name in BENCHMARK_NAMES
            for scheme in SCHEMES
        )
        assert engine.stats.worker_crashes >= 1
        assert "crashed" in batch.counts()

    def test_same_seed_reproduces_schedule_and_outcomes(self, tmp_path):
        _, plan_a, first = self.run_once(tmp_path, "a")
        _, plan_b, second = self.run_once(tmp_path, "b")
        # Identical fault schedule: decisions are pure functions of
        # (seed, site, key), independent of pool scheduling.
        for site in PROBABILITY_SITES:
            for name in BENCHMARK_NAMES:
                for scheme in SCHEMES:
                    key = (name, scheme, 1)
                    assert plan_a.decide(site, key) == plan_b.decide(
                        site, key
                    )
        # Cells their own draws doom fail in both runs; a cell that
        # survived both is bit-identical (simulation is deterministic;
        # which bystanders a crash interrupts is not).
        doomed = self.doomed(plan_a)
        for a, b in zip(first, second):
            if (a.spec.benchmark_name, a.spec.scheme) in doomed:
                assert not a.ok and not b.ok
            if a.ok and b.ok:
                assert a.result == b.result

    def test_corrupted_entries_quarantined_by_next_reader(self, tmp_path):
        # Without crashes every cell that survives its own draws is
        # stored, so the corruption count is a pure function of the seed.
        engine, plan, batch = self.run_once(
            tmp_path, "quarantine", worker_crash=0.0
        )
        store = engine.store
        corrupted = plan.injected.get("store_corrupt", 0)
        assert corrupted >= 1
        # A fresh engine over the same store, without the plan, must
        # quarantine every damaged entry it touches and re-simulate
        # those cells with the failed ones — the batch completes.
        reader = Engine(jobs=1, store=store, memory_cache={})
        rerun = reader.run(
            suite_cells(ExperimentConfig(max_instructions=BUDGET))
        )
        assert store.quarantined == corrupted
        assert len(store.corrupt_files()) == corrupted
        for path in store.corrupt_files():
            assert store.quarantine_reason(path)
        assert all(o.ok for o in rerun)
        assert reader.stats.simulations == len(batch.failures) + corrupted
        for a, b in zip(batch, rerun):
            if a.ok:
                assert a.result == b.result

    def test_rerun_without_the_plan_simulates_exactly_the_failed_cells(
        self, tmp_path
    ):
        engine, _, batch = self.run_once(tmp_path, "rerun", store_corrupt=0.0)
        assert batch.failures
        cells = suite_cells(ExperimentConfig(max_instructions=BUDGET))
        with Engine(jobs=2, store=engine.store, memory_cache={}) as reader:
            rerun = reader.run(cells)
        assert reader.stats.simulations == len(batch.failures)
        assert reader.stats.store_hits == len(batch.ok)
        assert [o.source for o in rerun] == [
            "store" if o.ok else "simulated" for o in batch
        ]
        assert rerun.values() == [execute(spec) for spec in cells]


class TestWorkerDeath:
    """``worker_crash=1.0``: every pool worker dies on its first cell."""

    def cells(self):
        config = ExperimentConfig(max_instructions=BUDGET)
        return [
            RunSpec(name, "baseline", config) for name in BENCHMARK_NAMES[:3]
        ]

    def test_crash_settles_every_cell_and_the_next_batch_respawns(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        cells = self.cells()
        with Engine(
            jobs=2,
            store=store,
            memory_cache={},
            fault_plan=FaultPlan(seed=0, worker_crash=1.0),
            failure_policy="skip",
        ) as engine:
            batch = engine.run(cells)
            assert [o.status for o in batch] == ["crashed"] * len(cells)
            assert all("BrokenProcessPool" in o.error for o in batch)
            assert engine.stats.worker_crashes == 1
            assert not engine.pool.alive and len(store) == 0
            # Recovery is a re-run without the plan; the engine spawns
            # a fresh pool for it.
            engine.fault_plan = None
            rerun = engine.run(cells)
        assert all(o.ok for o in rerun)
        assert engine.stats.pools_spawned == 2
        assert rerun.values() == [execute(spec) for spec in cells]

    def test_crash_under_raise_aborts_the_batch(self):
        engine = Engine(
            jobs=2,
            use_cache=False,
            memory_cache={},
            fault_plan=FaultPlan(seed=0, worker_crash=1.0),
        )
        with engine, pytest.raises(CellExecutionError) as caught:
            engine.run(self.cells())
        assert isinstance(caught.value.cause, BrokenProcessPool)
        assert not engine.pool.alive


class TestNoCrashChaosDeterminism:
    def test_full_outcome_records_reproduce_without_crash_interference(
        self, tmp_path
    ):
        # Without worker crashes no cell can be interrupted by a
        # neighbour, so every outcome record is a pure function of the
        # seed and must reproduce exactly.
        def run(tag):
            config = ExperimentConfig(max_instructions=BUDGET)
            engine = Engine(
                jobs=2,
                store=ResultStore(tmp_path / f"store-{tag}"),
                memory_cache={},
                fault_plan=FaultPlan(
                    seed=77, cell_exception=0.3, cell_timeout=0.2
                ),
                failure_policy="skip",
            )
            return engine, engine.run(suite_cells(config))

        engine_a, first = run("a")
        engine_b, second = run("b")
        # Without crash interference the executed-timeout count is a
        # pure function of the seed — this pins the timeout site the
        # crash-gate test above cannot assert deterministically.
        assert engine_a.stats.timeouts >= 1
        assert engine_a.stats.timeouts == engine_b.stats.timeouts
        records = lambda batch: [  # noqa: E731
            (o.spec.benchmark_name, o.spec.scheme, o.status, o.attempts,
             o.error)
            for o in batch
        ]
        assert records(first) == records(second)


class TestChaosCLI:
    def test_inject_and_on_error_flags(self, tmp_path, capsys):
        from repro.cli import main

        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "quick",
                "--benchmarks", "db",
                "--instructions", str(BUDGET),
                "--store-dir", str(tmp_path / "store"),
                "--inject", "seed=9,cell_exception=0.2,cell_timeout=0.1",
                "--on-error", "skip",
                "--stats-json", str(stats_path),
            ]
        )
        assert code == 0
        payload = json.loads(stats_path.read_text())
        assert payload["simulations"] >= 1
        out = capsys.readouterr().out
        assert "energy reduction" in out

    def test_bad_inject_spec_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "quick",
                    "--store-dir", str(tmp_path / "store"),
                    "--inject", "seed=1,bogus=0.5",
                ]
            )
        assert excinfo.value.code == 2
        assert "bad --inject plan" in capsys.readouterr().err
