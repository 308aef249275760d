"""Persistent result store: round-tripping, schema guards, fingerprints.

Covers the store side of the engine redesign: RunResult → JSON →
RunResult equality (including every nested stats dataclass), rejection
of corrupted / future-schema / mismatched entries, the public
``ExperimentConfig.fingerprint()`` regression guarantee (every nested
knob participates), and a two-process cache-hit round trip through a
tmpdir store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.policy import HotspotPolicyStats
from repro.phases.classifier import PhaseOccurrenceStats
from repro.phases.policy import BBVPolicyStats
from repro.sim.config import ExperimentConfig
from repro.sim.driver import HotspotSummary, RunResult, RunSpec, execute
from repro.sim.store import (
    DEFAULT_STORE_DIR,
    STORE_SCHEMA_VERSION,
    ResultStore,
    default_store_dir,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def make_result(**overrides) -> RunResult:
    """A fully populated RunResult exercising every nested field."""
    fields = dict(
        benchmark="db",
        scheme="hotspot",
        instructions=100_000,
        cycles=150_000.5,
        ipc=0.6667,
        l1d_energy_nj=1234.5,
        l2_energy_nj=987.25,
        l1d_breakdown={"dynamic": 1000.0, "leakage": 200.5, "reconfig": 34.0},
        l2_breakdown={"dynamic": 800.0, "leakage": 180.25, "reconfig": 7.0},
        memory_nj=55.5,
        l1d_miss_rate=0.03,
        l2_miss_rate=0.11,
        branch_mispredict_rate=0.02,
        n_hotspots=2,
        instructions_in_hotspots=60_000,
        hotspot_summaries={
            "work": HotspotSummary(
                name="work",
                invocations=120,
                mean_size=512.5,
                detected_at=4_000,
                pre_hot_instructions=2_000,
            ),
            "cold": HotspotSummary(
                name="cold",
                invocations=3,
                mean_size=99.0,
                detected_at=None,
                pre_hot_instructions=0,
            ),
        },
        hotspot_stats=HotspotPolicyStats(
            hotspots_by_kind={"L1D": 1, "L2": 1},
            managed_hotspots=2,
            tuned_hotspots=1,
            unmanaged_hotspots=1,
            tunings={"L1D": 4, "L2": 2},
            reconfigs={"L1D": 6, "L2": 3},
            denied={"L1D": 1},
            coverage={"L1D": 0.4, "L2": 0.6},
            per_hotspot_ipc_cov=0.05,
            inter_hotspot_ipc_cov=0.2,
            retunes=1,
            early_aborts=1,
            kind_of={"work": "L1D", "cold": "L2"},
            hotspot_mean_ipc={"work": 0.7, "cold": 0.5},
        ),
        bbv_stats=BBVPolicyStats(
            n_phases=3,
            tuned_phases=2,
            intervals_total=40,
            intervals_in_tuned_phases=25,
            per_phase_ipc_cov=0.04,
            inter_phase_ipc_cov=0.18,
            tunings={"L1D": 5, "L2": 1},
            reconfigs={"L1D": 9, "L2": 2},
            safety_reconfigs={"L1D": 1},
            coverage={"L1D": 0.5, "L2": 0.5},
            occurrence_stats=PhaseOccurrenceStats(
                stable_intervals=30,
                transitional_intervals=10,
                occurrences=5,
                stable_occurrences=3,
            ),
            discarded_trials=2,
            predicted_applications=0,
            prediction_accuracy=None,
        ),
        applied_reconfigurations={"L1D": 6, "L2": 3},
        denied_reconfigurations={"L1D": 1},
        gc_invocations=7,
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestRoundTrip:
    def test_synthetic_result_round_trips_exactly(self):
        result = make_result()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = RunResult.from_dict(payload)
        assert restored == result
        assert isinstance(
            restored.hotspot_summaries["work"], HotspotSummary
        )
        assert isinstance(restored.hotspot_stats, HotspotPolicyStats)
        assert isinstance(restored.bbv_stats, BBVPolicyStats)
        assert isinstance(
            restored.bbv_stats.occurrence_stats, PhaseOccurrenceStats
        )

    def test_none_stats_round_trip(self):
        result = make_result(hotspot_stats=None, bbv_stats=None)
        assert RunResult.from_dict(result.to_dict()) == result

    @pytest.mark.parametrize("scheme", ["bbv", "hotspot"])
    def test_real_run_round_trips_through_store(self, tmp_path, scheme):
        config = ExperimentConfig(max_instructions=60_000)
        result = execute(RunSpec("db", scheme, config))
        store = ResultStore(tmp_path)
        fingerprint = config.fingerprint()
        store.put("db", scheme, fingerprint, result)
        restored = store.get("db", scheme, fingerprint)
        assert restored == result

    def test_unknown_result_field_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint = ExperimentConfig().fingerprint()
        path = store.put("db", "hotspot", fingerprint, make_result())
        payload = json.loads(path.read_text())
        payload["result"]["field_from_the_future"] = 1
        path.write_text(json.dumps(payload))
        assert store.get("db", "hotspot", fingerprint) is None


class TestSchemaGuards:
    def setup_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint = ExperimentConfig().fingerprint()
        path = store.put("db", "hotspot", fingerprint, make_result())
        return store, fingerprint, path

    def test_future_schema_version_rejected(self, tmp_path):
        store, fingerprint, path = self.setup_entry(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.get("db", "hotspot", fingerprint) is None

    def test_corrupted_json_rejected(self, tmp_path):
        store, fingerprint, path = self.setup_entry(tmp_path)
        path.write_text(path.read_text()[:50])
        assert store.get("db", "hotspot", fingerprint) is None

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store, fingerprint, path = self.setup_entry(tmp_path)
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert store.get("db", "hotspot", fingerprint) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("db", "hotspot", "f" * 64) is None

    def test_clear_removes_entries(self, tmp_path):
        store, fingerprint, _ = self.setup_entry(tmp_path)
        assert len(store) == 1
        stats = store.clear()
        assert stats.entries == 1
        assert stats.tmp == 0
        assert stats.corrupt == 0
        assert stats.total == 1
        assert len(store) == 0
        assert store.get("db", "hotspot", fingerprint) is None


# ---------------------------------------------------------------------------
# Fingerprint regression: every nested knob participates
# ---------------------------------------------------------------------------


def leaf_paths(obj, prefix=()):
    """Dotted paths to every primitive leaf of a config dataclass tree."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from leaf_paths(getattr(obj, f.name), prefix + (f.name,))
    else:
        yield prefix, obj


def mutated_leaf(value):
    """A different-but-valid value for a config leaf."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.001
    if isinstance(value, str):
        swaps = {
            "energy": "edp",
            "edp": "energy",
            "selective": "flush",
            "flush": "selective",
            "fast": "reference",
            "reference": "fast",
            "shared": "split",
            "split": "shared",
        }
        return swaps.get(value, value + "x")
    if isinstance(value, tuple):
        return value[:-1] if len(value) > 1 else value + value
    if value is None:
        return 1
    raise TypeError(f"unexpected leaf type: {value!r}")


def replaced(obj, path, new_leaf):
    """Rebuild a (possibly frozen) dataclass tree with one leaf changed."""
    if not path:
        return new_leaf
    name = path[0]
    child = replaced(getattr(obj, name), path[1:], new_leaf)
    return dataclasses.replace(obj, **{name: child})


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert (
            ExperimentConfig().fingerprint()
            == ExperimentConfig().fingerprint()
        )

    def test_every_nested_knob_changes_the_fingerprint(self):
        base = ExperimentConfig()
        base_fingerprint = base.fingerprint()
        paths = list(leaf_paths(base))
        # The walk must reach deep into the tree (machine geometry,
        # timing, energy specs, tuning, BBV) — a shrinking leaf count
        # would mean the structural hash lost coverage.
        assert len(paths) >= 40
        seen = {base_fingerprint}
        for path, value in paths:
            mutated = replaced(base, path, mutated_leaf(value))
            fingerprint = mutated.fingerprint()
            dotted = ".".join(path)
            assert fingerprint != base_fingerprint, (
                f"mutating {dotted} did not change the fingerprint"
            )
            assert fingerprint not in seen, (
                f"mutating {dotted} collided with another mutation"
            )
            seen.add(fingerprint)

    def test_formerly_omitted_knobs_now_participate(self):
        # Regression for the old hand-written tuple fingerprint, which
        # silently omitted these (stale cache hits were possible).
        base = ExperimentConfig()
        cases = [
            ("tuning", "measurements_per_trial"),
            ("tuning", "min_measurable_instructions"),
            ("machine", "l1d", "line_size"),
            ("machine", "l2", "associativity"),
            ("machine", "timing", "memory_latency"),
            ("machine", "l1d_energy", "writeback_line_nj"),
            ("bbv", "counter_bits"),
        ]
        for path in cases:
            leaf = base
            for name in path:
                leaf = getattr(leaf, name)
            mutated = replaced(base, path, mutated_leaf(leaf))
            assert mutated.fingerprint() != base.fingerprint(), path

    def test_sim_kernel_participates_in_the_fingerprint(self):
        """Regression for the fast-kernel rollout: results computed by
        the two kernels are bit-identical, but they must still never
        collide in the persistent store — a divergence bug found later
        would otherwise let one kernel serve the other's cached cells."""
        fast = ExperimentConfig(sim_kernel="fast")
        reference = ExperimentConfig(sim_kernel="reference")
        assert fast.fingerprint() != reference.fingerprint()
        # The kernel choice does not affect *cacheability* — both are
        # deterministic simulations fully described by their config.
        assert RunSpec("db", "baseline", fast).cacheable
        assert RunSpec("db", "baseline", reference).cacheable
        assert RunSpec("db", "baseline", fast).cache_key() != (
            RunSpec("db", "baseline", reference).cache_key()
        )

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (
                {},
                "30cd062cbaa5f8696ee7d4c93407de9ec30a16454a318c88bc5d0742cd502832",
            ),
            (
                {"max_instructions": 3_000_000},
                "185e93aacde2040f1f1c257713acfa212b80926e235c5f7177688f30f6704021",
            ),
            (
                {"sim_kernel": "reference"},
                "e71e997bf7fde594396ac78f0789d8b8afc5f7c1705b9bc970d1d768306a0241",
            ),
        ],
        ids=["default", "ablation-budget", "reference-kernel"],
    )
    def test_store_keys_are_pinned(self, overrides, expected):
        """Literal store keys: a change that moves them orphans every
        persisted entry, so it must bump FINGERPRINT_VERSION on purpose
        rather than happen as a side effect of a config refactor."""
        assert ExperimentConfig(**overrides).fingerprint() == expected

    def test_fingerprint_hash_is_cpythons_own_sha256(self):
        """The fingerprint hashes with CPython's builtin SHA-256
        (``_sha256`` up to 3.11, ``_sha2`` from 3.12), not OpenSSL's;
        the pinned keys above hold on every version CI runs."""
        import hashlib
        import importlib
        import platform

        from repro.hashing import sha256

        if platform.python_implementation() == "CPython":
            builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
            assert sha256 is importlib.import_module(builtin).sha256
        blob = b'{"config":{},"version":2}'
        assert sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()

    def test_effective_fingerprint_folds_budget_override(self):
        config = ExperimentConfig(max_instructions=100_000)
        spec = RunSpec("db", "baseline", config)
        override = RunSpec(
            "db", "baseline", config, max_instructions=50_000
        )
        folded = RunSpec(
            "db", "baseline", ExperimentConfig(max_instructions=50_000)
        )
        assert spec.effective_fingerprint() != (
            override.effective_fingerprint()
        )
        assert (
            override.effective_fingerprint()
            == folded.effective_fingerprint()
        )


# ---------------------------------------------------------------------------
# Two-process cache hit through a tmpdir store
# ---------------------------------------------------------------------------

TWO_PROCESS_SCRIPT = """
import sys
from repro.sim.config import ExperimentConfig
from repro.sim.experiment import make_engine, run_suite, set_default_store
from repro.sim.store import ResultStore

set_default_store(ResultStore(sys.argv[1]))
config = ExperimentConfig(max_instructions=60_000)
engine = make_engine()
run_suite(["db"], config, engine=engine)
print("SIMULATIONS", engine.stats.simulations)
print("STORE_HITS", engine.stats.store_hits)
"""


def run_fresh_process(store_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", TWO_PROCESS_SCRIPT, str(store_dir)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    counters = {}
    for line in completed.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            counters[parts[0]] = int(parts[1])
    return counters


class TestTwoProcessStoreHit:
    def test_second_process_runs_zero_simulations(self, tmp_path):
        first = run_fresh_process(tmp_path)
        assert first["SIMULATIONS"] == 3
        assert first["STORE_HITS"] == 0
        second = run_fresh_process(tmp_path)
        assert second["SIMULATIONS"] == 0
        assert second["STORE_HITS"] == 3


# ---------------------------------------------------------------------------
# Concurrent writers: atomic replace keeps every reader valid
# ---------------------------------------------------------------------------

CONCURRENT_WRITER_SCRIPT = """
import sys
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.store import ResultStore

store = ResultStore(sys.argv[1])
spec = RunSpec("db", "baseline", ExperimentConfig(max_instructions=60_000))
key = spec.cache_key()
result = execute(spec)
# Hammer the same key while the sibling process does the same; every
# interleaved get() must see a complete entry (atomic replace), never a
# torn write.
for round in range(25):
    store.put(*key, result)
    loaded = store.get(*key)
    assert loaded is not None, f"torn read in round {round}"
    assert loaded == result
assert store.quarantined == 0
print("WRITER_OK", sys.argv[2])
"""


class TestConcurrentWriters:
    def test_same_key_writers_never_tear_each_other(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        writers = [
            subprocess.Popen(
                [
                    sys.executable, "-c", CONCURRENT_WRITER_SCRIPT,
                    str(tmp_path), str(index),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for index in range(2)
        ]
        for index, writer in enumerate(writers):
            out, err = writer.communicate(timeout=300)
            assert writer.returncode == 0, err
            assert f"WRITER_OK {index}" in out
        # Whichever replace landed last, the surviving entry is valid
        # and there is no .tmp debris or quarantined damage behind.
        store = ResultStore(tmp_path)
        spec = RunSpec(
            "db", "baseline", ExperimentConfig(max_instructions=60_000)
        )
        assert store.get(*spec.cache_key()) is not None
        assert store.stale_tmp_files() == []
        assert store.corrupt_files() == []
        assert len(store) == 1


class TestDefaultRoot:
    def test_the_suite_never_touches_the_developer_store(self):
        # tests/conftest.py points the default store, in this process and
        # in the subprocesses tests start, at a session temp directory.
        from repro.sim.experiment import get_default_store

        developer_store = Path(DEFAULT_STORE_DIR).resolve()
        assert get_default_store().root.resolve() != developer_store
        assert default_store_dir().resolve() != developer_store
        assert ResultStore().root == get_default_store().root

    def test_default_root_is_results_store_unless_overridden(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert ResultStore().root == Path("results/store")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert ResultStore().root == tmp_path
