"""Fault-injection subsystem: determinism, degradation, drift recovery.

Covers the `repro.faults` contract (pure-function draws, spec parsing,
pickling), the engine's graceful-degradation paths under injected faults
(failure policies, per-cell outcomes, store quarantine), the machine's
injected reconfiguration denials, the null-injector overhead contract
(no plan ⇒ bit-identical results), and the drift-recovery acceptance
test: a forced mid-run behaviour shift must drive the sampling code
through ``sampling_retune`` and re-pin the post-shift-optimal
configuration.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.faults import PROBABILITY_SITES, FaultPlan
from repro.obs import SAMPLING_RETUNE, TIMEOUT_DISABLED, Telemetry
from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.sim.driver import RunSpec, execute
from repro.sim.engine import (
    BatchExecutionError,
    CellExecutionError,
    Engine,
)
from repro.sim.store import ResultStore
from tests.conftest import make_loop_program

BUDGET = 60_000


@pytest.fixture
def small_config():
    return ExperimentConfig(max_instructions=BUDGET)


# ---------------------------------------------------------------------------
# FaultPlan: determinism, serialisation, validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_default_plan_injects_nothing(self):
        plan = FaultPlan()
        for site in PROBABILITY_SITES:
            assert not plan.decide(site, ("db", "hotspot", 1))
        assert not plan.perturbs_simulation
        assert not plan.perturbs_profiling
        assert plan.injected == {}

    def test_decisions_are_pure_functions_of_seed_site_key(self):
        a = FaultPlan(seed=7, cell_exception=0.5)
        b = FaultPlan(seed=7, cell_exception=0.5)
        keys = [("db", s, n) for s in ("baseline", "hotspot") for n in range(50)]
        assert [a.decide("cell_exception", k) for k in keys] == [
            b.decide("cell_exception", k) for k in keys
        ]
        # Different seed ⇒ (almost surely) a different schedule.
        c = FaultPlan(seed=8, cell_exception=0.5)
        assert [a._uniform("cell_exception", k) for k in keys] != [
            c._uniform("cell_exception", k) for k in keys
        ]

    def test_decisions_are_order_independent(self):
        plan = FaultPlan(seed=3, cell_timeout=0.4)
        keys = [("db", "hotspot", n) for n in range(20)]
        forward = {k: plan._uniform("cell_timeout", k) for k in keys}
        backward = {
            k: plan._uniform("cell_timeout", k) for k in reversed(keys)
        }
        assert forward == backward

    def test_pickled_plan_decides_identically(self):
        plan = FaultPlan(seed=11, worker_crash=0.3, profile_noise=0.2)
        clone = pickle.loads(pickle.dumps(plan))
        keys = [("jess", "bbv", n) for n in range(30)]
        assert [plan._uniform("worker_crash", k) for k in keys] == [
            clone._uniform("worker_crash", k) for k in keys
        ]

    def test_probabilities_scale_fire_rate(self):
        plan = FaultPlan(seed=5, cell_exception=0.25)
        fired = sum(
            plan.decide("cell_exception", ("db", "hotspot", n))
            for n in range(2000)
        )
        assert 0.18 < fired / 2000 < 0.32
        assert plan.injected["cell_exception"] == fired

    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=42, worker_crash=0.2, cell_timeout=0.1, drift_at=100_000
        )
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-plan field"):
            FaultPlan.from_spec("seed=1,bogus=0.5")
        with pytest.raises(ValueError, match="name=value"):
            FaultPlan.from_spec("worker_crash")

    def test_validation_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(worker_crash=1.5)
        with pytest.raises(ValueError):
            FaultPlan(profile_noise=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(drift_ipc_factor=0.0)

    def test_perturbs_simulation_gates(self):
        assert FaultPlan(profile_noise=0.1).perturbs_simulation
        assert FaultPlan(drift_at=1000).perturbs_simulation
        assert FaultPlan(reconfig_deny=0.5).perturbs_simulation
        # Engine-only sites leave simulation results untouched.
        engine_only = FaultPlan(
            worker_crash=0.5, cell_exception=0.5,
            cell_timeout=0.5, store_corrupt=0.5,
        )
        assert not engine_only.perturbs_simulation

    def test_noise_perturbation_is_deterministic_and_multiplicative(self):
        plan = FaultPlan(seed=9, profile_noise=0.25)
        first = plan.perturb_measurement("work", (1,), 0.8, 100.0, 0, 3)
        second = plan.perturb_measurement("work", (1,), 0.8, 100.0, 0, 3)
        assert first == second
        assert first[0] > 0 and first[1] > 0
        other = plan.perturb_measurement("work", (1,), 0.8, 100.0, 0, 4)
        assert other != first

    def test_drift_penalises_downsized_configs(self):
        plan = FaultPlan(
            seed=1, drift_at=1000, drift_ipc_factor=0.5,
            drift_config_penalty=0.3,
        )
        # Before the shift: untouched.
        assert plan.perturb_measurement("work", (2,), 1.0, 10.0, 999, 0) == (
            1.0, 10.0
        )
        max_ipc, max_energy = plan.perturb_measurement(
            "work", (0,), 1.0, 10.0, 1000, 0
        )
        small_ipc, small_energy = plan.perturb_measurement(
            "work", (3,), 1.0, 10.0, 1000, 0
        )
        assert max_ipc == pytest.approx(0.5)
        assert max_energy == pytest.approx(10.0)
        assert small_ipc < max_ipc
        assert small_energy > max_energy


# ---------------------------------------------------------------------------
# Engine degradation: failure policies, outcomes, retry accounting
# ---------------------------------------------------------------------------


class TestFailurePolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="failure_policy"):
            Engine(failure_policy="ignore")

    def test_raise_policy_aborts_like_before(self, small_config):
        plan = FaultPlan(seed=0, cell_exception=1.0)
        engine = Engine(
            memory_cache={}, fault_plan=plan, max_retries=1
        )
        with pytest.raises(CellExecutionError):
            engine.run([RunSpec("db", "baseline", small_config)])

    def test_skip_policy_returns_none_slots(self, small_config):
        # Doom exactly the cells whose every attempt draws a fault.
        plan = FaultPlan(seed=0, cell_exception=1.0)
        engine = Engine(
            memory_cache={},
            fault_plan=plan,
            max_retries=1,
            failure_policy="skip",
        )
        batch = engine.run(
            [
                RunSpec("db", "baseline", small_config),
                RunSpec("jess", "baseline", small_config),
            ]
        )
        assert batch.degraded
        assert batch.values() == [None, None]
        assert [o.status for o in batch] == ["failed", "failed"]
        assert all("InjectedFault" in o.error for o in batch.outcomes)
        assert all(o.attempts == 2 for o in batch.outcomes)
        assert engine.stats.failures == 2
        assert engine.stats.retries == 2

    def test_partial_policy_serves_survivors(self, small_config):
        # Fire on some (benchmark, scheme, attempt) keys but not others:
        # pick a seed/probability where db survives and jess fails.
        plan = None
        for seed in range(200):
            candidate = FaultPlan(seed=seed, cell_exception=0.6)
            db_ok = not any(
                candidate._uniform(
                    "cell_exception", ("db", "baseline", n)
                ) < 0.6
                for n in (1, 2)
            )
            jess_doomed = all(
                candidate._uniform(
                    "cell_exception", ("jess", "baseline", n)
                ) < 0.6
                for n in (1, 2)
            )
            if db_ok and jess_doomed:
                plan = FaultPlan(seed=seed, cell_exception=0.6)
                break
        assert plan is not None, "no seed under 200 split the two cells"
        engine = Engine(
            memory_cache={},
            fault_plan=plan,
            max_retries=1,
            failure_policy="partial",
        )
        batch = engine.run(
            [
                RunSpec("db", "baseline", small_config),
                RunSpec("jess", "baseline", small_config),
            ]
        )
        assert batch.degraded
        assert batch.outcomes[0].ok
        assert batch.outcomes[0].result is not None
        assert batch.outcomes[1].status == "failed"
        assert len(batch.ok) == 1 and len(batch.failures) == 1
        assert batch.counts() == {"ok": 1, "failed": 1}

    def test_partial_policy_raises_when_all_fail(self, small_config):
        plan = FaultPlan(seed=0, cell_exception=1.0)
        engine = Engine(
            memory_cache={},
            fault_plan=plan,
            max_retries=0,
            failure_policy="partial",
        )
        with pytest.raises(BatchExecutionError) as excinfo:
            engine.run([RunSpec("db", "baseline", small_config)])
        assert len(excinfo.value.batch.failures) == 1

    def test_injected_timeout_counts_and_statuses(self, small_config):
        plan = FaultPlan(seed=0, cell_timeout=1.0)
        engine = Engine(
            memory_cache={},
            fault_plan=plan,
            max_retries=1,
            failure_policy="skip",
        )
        batch = engine.run([RunSpec("db", "baseline", small_config)])
        assert batch.outcomes[0].status == "timeout"
        assert engine.stats.timeouts == 2  # both attempts timed out

    def test_failed_leader_fails_duplicates_too(self, small_config):
        plan = FaultPlan(seed=0, cell_exception=1.0)
        engine = Engine(
            memory_cache={},
            fault_plan=plan,
            max_retries=0,
            failure_policy="skip",
        )
        batch = engine.run(
            [
                RunSpec("db", "baseline", small_config),
                RunSpec("db", "baseline", small_config),
            ]
        )
        assert [o.status for o in batch] == ["failed", "failed"]
        assert engine.stats.deduplicated == 1
        assert engine.stats.simulations == 0

    def test_retry_recovers_single_attempt_fault(self, small_config):
        # A seed where attempt 1 faults and attempt 2 succeeds.
        seed = next(
            s
            for s in range(500)
            if FaultPlan(seed=s, cell_exception=0.5)._uniform(
                "cell_exception", ("db", "baseline", 1)
            ) < 0.5
            and FaultPlan(seed=s, cell_exception=0.5)._uniform(
                "cell_exception", ("db", "baseline", 2)
            ) >= 0.5
        )
        plan = FaultPlan(seed=seed, cell_exception=0.5)
        engine = Engine(memory_cache={}, fault_plan=plan, max_retries=1)
        batch = engine.run([RunSpec("db", "baseline", small_config)])
        assert batch.outcomes[0].ok
        assert batch.outcomes[0].attempts == 2
        assert engine.stats.retries == 1

    def test_degradation_events_emitted(self, small_config):
        telemetry = Telemetry()
        plan = FaultPlan(seed=0, cell_exception=1.0)
        engine = Engine(
            memory_cache={},
            fault_plan=plan,
            max_retries=0,
            failure_policy="skip",
            telemetry=telemetry,
        )
        engine.run([RunSpec("db", "baseline", small_config)])
        counts = telemetry.log.counts()
        assert counts.get("cell_failed") == 1
        assert counts.get("batch_degraded") == 1


# ---------------------------------------------------------------------------
# Caching under injection
# ---------------------------------------------------------------------------


class TestCachingUnderInjection:
    def test_perturbing_plan_disables_both_cache_layers(
        self, tmp_path, small_config
    ):
        store = ResultStore(tmp_path)
        memory = {}
        plan = FaultPlan(seed=1, profile_noise=0.2)
        engine = Engine(store=store, memory_cache=memory, fault_plan=plan)
        spec = RunSpec("db", "hotspot", small_config)
        engine.run_one(spec)
        engine.run_one(spec)
        assert engine.stats.simulations == 2
        assert len(store) == 0
        assert memory == {}

    def test_engine_only_plan_keeps_caching(self, tmp_path, small_config):
        store = ResultStore(tmp_path)
        plan = FaultPlan(seed=1, cell_exception=0.0, worker_crash=0.0)
        engine = Engine(store=store, memory_cache={}, fault_plan=plan)
        spec = RunSpec("db", "baseline", small_config)
        engine.run_one(spec)
        engine.run_one(spec)
        assert engine.stats.simulations == 1
        assert engine.stats.memory_hits == 1
        assert len(store) == 1


# ---------------------------------------------------------------------------
# Store corruption + quarantine end-to-end
# ---------------------------------------------------------------------------


class TestStoreQuarantine:
    def test_corrupted_entry_quarantined_and_resimulated(
        self, tmp_path, small_config
    ):
        store = ResultStore(tmp_path)
        plan = FaultPlan(seed=0, store_corrupt=1.0)
        writer = Engine(store=store, memory_cache={}, fault_plan=plan)
        spec = RunSpec("db", "baseline", small_config)
        first = writer.run_one(spec)
        assert plan.injected["store_corrupt"] == 1

        # A fresh engine (no memory cache) must quarantine the damaged
        # entry, re-simulate, and leave the evidence on disk.
        reader = Engine(store=store, memory_cache={})
        second = reader.run_one(spec)
        assert second == first
        assert reader.stats.store_hits == 0
        assert reader.stats.simulations == 1
        assert store.quarantined == 1
        corrupt = store.corrupt_files()
        assert len(corrupt) == 1
        reason = store.quarantine_reason(corrupt[0])
        assert reason is not None and "unreadable entry" in reason
        # The re-simulation rewrote a valid entry (writer corrupted its
        # own put; the reader's plan-free engine wrote a clean one).
        assert len(store) == 1
        third = Engine(store=store, memory_cache={})
        assert third.run_one(spec) == first
        assert third.stats.store_hits == 1

    def test_clear_counts_corrupt_and_tmp_separately(
        self, tmp_path, small_config
    ):
        store = ResultStore(tmp_path)
        plan = FaultPlan(seed=0, store_corrupt=1.0)
        Engine(store=store, memory_cache={}, fault_plan=plan).run_one(
            RunSpec("db", "baseline", small_config)
        )
        Engine(store=store, memory_cache={}).run_one(
            RunSpec("db", "baseline", small_config)
        )
        (tmp_path / "leftoverXYZ.tmp").write_text("debris")
        assert [p.name for p in store.stale_tmp_files()] == [
            "leftoverXYZ.tmp"
        ]
        stats = store.clear()
        assert stats.entries == 1
        assert stats.tmp == 1
        assert stats.corrupt == 1
        assert stats.total == 3
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Machine: injected reconfiguration denials
# ---------------------------------------------------------------------------


class TestReconfigDeny:
    def test_injected_denials_counted_and_deterministic(self):
        def denied_count(seed):
            machine = build_machine(MachineConfig())
            machine.fault_plan = FaultPlan(seed=seed, reconfig_deny=0.5)
            denials = 0
            for step in range(40):
                machine.instructions += 200_000
                target = (step % 3) + 1
                if not machine.request_reconfiguration("L1D", target):
                    denials += 1
            return denials, dict(machine.denied_reconfigurations)

        first, first_map = denied_count(3)
        second, second_map = denied_count(3)
        assert first == second
        assert first_map == second_map
        assert first > 0
        # Denials are injected on top of the guard, never removing them:
        # with no plan the same schedule is all-granted (interval 200k
        # steps keep the guard satisfied).
        machine = build_machine(MachineConfig())
        for step in range(40):
            machine.instructions += 200_000
            assert machine.request_reconfiguration("L1D", (step % 3) + 1)


# ---------------------------------------------------------------------------
# Null-injector overhead contract
# ---------------------------------------------------------------------------


class TestNullInjector:
    def test_no_plan_and_zero_plan_are_bit_identical(self, small_config):
        spec = RunSpec("db", "hotspot", small_config)
        bare = execute(spec)
        zero = execute(spec, fault_plan=FaultPlan())
        assert bare == zero

    def test_engine_without_plan_matches_zero_plan(self, small_config):
        spec = RunSpec("db", "hotspot", small_config)
        plain = Engine(memory_cache={}).run_one(spec)
        zeroed = Engine(
            memory_cache={}, fault_plan=FaultPlan()
        ).run_one(spec)
        assert plain == zeroed


# ---------------------------------------------------------------------------
# Drift recovery: the sampling code must notice and re-tune
# ---------------------------------------------------------------------------


class TestDriftRecovery:
    def test_forced_drift_triggers_retune_to_post_shift_optimum(self):
        from repro.core.policy import HotspotACEPolicy
        from repro.core.tuning import TuningPhase
        from repro.vm.vm import VMConfig, VirtualMachine

        drift_at = 400_000
        plan = FaultPlan(
            seed=2,
            drift_at=drift_at,
            drift_ipc_factor=0.5,
            drift_config_penalty=0.3,
        )
        telemetry = Telemetry()
        machine = build_machine(MachineConfig())
        policy = HotspotACEPolicy()
        policy.fault_plan = plan
        machine.fault_plan = plan
        program = make_loop_program(trips=30, span=256)
        vm = VirtualMachine(
            program,
            machine,
            policy=policy,
            config=VMConfig(hot_threshold=3),
            telemetry=telemetry,
        )
        vm.run(1_600_000)

        state = policy.states["work"]
        # The 256B working set makes a downsized L1D optimal pre-shift
        # (see test_core_policy), so the drift penalty genuinely changes
        # the optimum.  The sampling code must have noticed the shift...
        assert policy.retunes >= 1
        assert len(telemetry.log.by_name(SAMPLING_RETUNE)) >= 1
        retune_ts = telemetry.log.by_name(SAMPLING_RETUNE)[0].ts
        assert retune_ts >= drift_at
        # ...and re-pinned the post-shift optimum: the maximum (index-0)
        # configuration, which the drift penalty leaves untouched.
        assert state.phase is TuningPhase.CONFIGURED
        assert state.best is not None
        assert sum(state.best.config) == 0


# ---------------------------------------------------------------------------
# Satellite: unarmed-timeout visibility off the main thread
# ---------------------------------------------------------------------------


class TestUnarmedTimeout:
    def test_off_main_thread_timeout_recorded_once(self, small_config):
        telemetry = Telemetry()
        engine = Engine(
            memory_cache={},
            use_cache=False,
            cell_timeout=120.0,
            telemetry=telemetry,
        )
        spec = RunSpec("db", "baseline", small_config)
        outcome = {}

        def run():
            outcome["results"] = engine.run(
                [spec, RunSpec("jess", "baseline", small_config)]
            ).values()

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        assert all(r is not None for r in outcome["results"])
        # One counter tick per unarmed cell, but only one warning event.
        assert engine.stats.timeouts_unarmed == 2
        assert len(telemetry.log.by_name(TIMEOUT_DISABLED)) == 1

    def test_main_thread_timeout_still_armed(self, small_config):
        engine = Engine(memory_cache={}, use_cache=False, cell_timeout=120.0)
        engine.run_one(RunSpec("db", "baseline", small_config))
        assert engine.stats.timeouts_unarmed == 0
