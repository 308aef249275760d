"""Lockstep groups: a benchmark's scheme cells as lanes of one VM.

The cells of one benchmark and configuration execute the same program
stream under every scheme; only the machine and the policy differ.  The
driver runs such a group as lanes of one fast-kernel VM, and the engine
forms the groups by itself.  Every result — and every telemetry
timeline — must equal the cell's solo run bit for bit.
"""

from __future__ import annotations

import json
import pickle
from concurrent.futures import Future

import pytest

from repro.faults import FaultPlan
from repro.obs.events import Telemetry
from repro.obs.recorder import FlightRecorder
from repro.obs.remote import SNAPSHOT_VERSION
from repro.sim import schedule as schedule_mod
from repro.sim.config import ExperimentConfig
from repro.sim.driver import SCHEMES, RunSpec, execute, execute_group
from repro.sim.engine import Engine
from repro.sim.pools.worker import run_chunk
from repro.sim.store import ResultStore
from repro.workloads.specjvm import BENCHMARK_NAMES
from tests.equivalence import simulated_timeline

BUDGET = 150_000


def tree(result):
    return json.loads(json.dumps(result.to_dict(), sort_keys=True))


def group_specs(bench, seed=12345, budget=BUDGET):
    config = ExperimentConfig(max_instructions=budget, seed=seed)
    return [RunSpec(bench, scheme, config) for scheme in SCHEMES]


# -- the driver ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [12345, 7])
@pytest.mark.parametrize("bench", ["mtrt", "javac", "jess"])
def test_group_results_equal_solo_runs(bench, seed):
    # mtrt runs two threads, javac collects garbage, jess is the suite's
    # most call-heavy benchmark.
    specs = group_specs(bench, seed)
    grouped = execute_group(specs)
    assert [r.scheme for r in grouped] == [execute(s).scheme for s in specs]
    for spec, result in zip(specs, grouped):
        assert tree(result) == tree(execute(spec)), spec.scheme


@pytest.mark.parametrize("bench", ["javac", "mtrt"])
def test_group_telemetry_equals_solo_logs(bench):
    specs = group_specs(bench)
    sessions = [Telemetry() for _ in specs]
    grouped = execute_group(specs, sessions)
    for spec, session, result in zip(specs, sessions, grouped):
        solo = Telemetry()
        assert tree(execute(spec, telemetry=solo)) == tree(result)
        timeline = simulated_timeline(session)
        assert timeline and timeline == simulated_timeline(solo), spec.scheme


def test_any_subset_of_schemes_is_a_group():
    specs = group_specs("db")
    for pair in (specs[:2], specs[1:], [specs[2], specs[0]]):
        for spec, result in zip(pair, execute_group(pair)):
            assert tree(result) == tree(execute(spec))


@pytest.mark.parametrize(
    "change",
    [
        lambda spec: setattr(spec, "max_instructions", BUDGET // 2),
        lambda spec: setattr(spec, "benchmark", "jess"),
        lambda spec: setattr(spec, "scheme", "baseline"),
        lambda spec: setattr(
            spec, "config", ExperimentConfig(max_instructions=BUDGET, seed=7)
        ),
        lambda spec: setattr(
            spec,
            "config",
            ExperimentConfig(max_instructions=BUDGET, sim_kernel="reference"),
        ),
    ],
)
def test_cells_that_cannot_share_a_stream_are_refused(change):
    specs = group_specs("db")
    change(specs[1])
    if specs[1].config.sim_kernel == "reference":
        for spec in specs:
            spec.config = specs[1].config
    with pytest.raises(ValueError, match="lockstep"):
        execute_group(specs)


# -- the engine ---------------------------------------------------------------


def metas(store):
    return {
        (entry["benchmark"], entry["scheme"]): entry.get("meta")
        for entry in (
            json.loads(path.read_text()) for path in store.root.rglob("*.json")
        )
    }


def test_serial_engine_runs_groups_and_charges_their_time_once(tmp_path):
    store = ResultStore(tmp_path / "store")
    cells = group_specs("jess") + group_specs("db")
    engine = Engine(store=store, memory_cache={})
    results = engine.run(cells).values()
    for spec, result in zip(cells, results):
        assert tree(result) == tree(execute(spec))
    meta = metas(store)
    for bench in ("jess", "db"):
        group = f"{bench}:baseline,bbv,hotspot"
        assert [meta[(bench, s)]["group"] for s in SCHEMES] == [group] * 3
        # The group's seconds go to its first cell.
        assert meta[(bench, "baseline")]["elapsed_s"] > 0
        assert meta[(bench, "bbv")]["elapsed_s"] == 0.0
        assert meta[(bench, "hotspot")]["elapsed_s"] == 0.0


def test_store_hit_inside_a_group(tmp_path):
    store = ResultStore(tmp_path / "store")
    cells = group_specs("db")
    Engine(store=store, memory_cache={}).run([cells[1]])
    engine = Engine(store=store, memory_cache={})
    results = engine.run(cells).values()
    assert engine.stats.store_hits == 1 and engine.stats.simulations == 2
    for spec, result in zip(cells, results):
        assert tree(result) == tree(execute(spec))
    meta = metas(store)
    # The hit keeps its solo entry; the two others ran as one group.
    assert "group" not in meta[("db", "bbv")]
    assert meta[("db", "baseline")]["group"] == "db:baseline,hotspot"
    assert meta[("db", "hotspot")]["group"] == "db:baseline,hotspot"


def one_lane_fault_plan(bench):
    """A plan whose ``cell_exception`` fires for exactly one scheme of
    ``bench`` on its first attempt and for none on the second."""
    for seed in range(1000):
        plan = FaultPlan(seed=seed, cell_exception=0.3)

        def fired(attempt):
            return [
                s
                for s in SCHEMES
                if plan._uniform("cell_exception", (bench, s, attempt)) < 0.3
            ]

        if len(fired(1)) == 1 and not fired(2):
            return seed, fired(1)[0]
    raise AssertionError("no such seed")


class InlinePool:
    """A pool that runs each chunk through the worker's ``run_chunk`` in
    this process (payloads pickled both ways, as a process pool does),
    recording the payloads."""

    name = "inline"

    def __init__(self, workers):
        self.workers = workers
        self.payloads = []
        self._alive = False

    def start(self, warm_benchmarks=()):
        spawned = not self._alive
        self._alive = True
        return spawned

    def submit_chunk(self, payload):
        self.payloads.append(payload)
        future = Future()
        reply = run_chunk(pickle.loads(pickle.dumps(payload)))
        future.set_result(pickle.loads(pickle.dumps(reply)))
        return future

    def close(self, fail_fast=False):
        self._alive = False

    @property
    def alive(self):
        return self._alive


@pytest.mark.parametrize("where", ["serial", "pool"])
def test_injected_fault_on_one_lane_reruns_the_group_solo(tmp_path, where):
    seed, faulty = one_lane_fault_plan("db")
    store = ResultStore(tmp_path / "store")
    pool = InlinePool(2) if where == "pool" else None
    recorder = FlightRecorder(tmp_path / "run.jsonl")
    engine = Engine(
        store=store,
        memory_cache={},
        pool=pool,
        fault_plan=FaultPlan(seed=seed, cell_exception=0.3),
        max_retries=1,
        recorder=recorder,
    )
    cells = group_specs("db")
    batch = engine.run(cells)
    assert [o.status for o in batch] == ["ok"] * 3
    assert [o.attempts for o in batch] == [
        2 if spec.scheme == faulty else 1 for spec in cells
    ]
    for spec, outcome in zip(cells, batch):
        assert tree(outcome.result) == tree(execute(spec))
    # The group failed as a whole, so every cell ran alone; the flight
    # recorder names the group and the fault.
    assert all("group" not in m for m in metas(store).values())
    (note,) = [
        r for r in FlightRecorder.read(recorder.path)
        if r.get("what") == "lockstep_failed"
    ]
    assert note["group"] == "db:baseline,bbv,hotspot"
    assert "InjectedFault" in note["error"] and faulty in note["error"]
    if pool is not None:
        assert pool.payloads[0][4] == (3,)


@pytest.mark.parametrize("chunk_size", [None, 1, 2])
def test_chunk_planning_never_splits_a_group(tmp_path, chunk_size):
    # 21 cells on 4 workers go 2 to a chunk cell by cell; groups of 3
    # must travel whole.
    assert schedule_mod.plan_round(list(range(21)), 4) == [
        [i, i + 1] for i in range(0, 20, 2)
    ] + [[20]]
    pool = InlinePool(4)
    config = ExperimentConfig(max_instructions=40_000)
    cells = [
        RunSpec(bench, scheme, config)
        for bench in BENCHMARK_NAMES
        for scheme in SCHEMES
    ]
    engine = Engine(
        store=ResultStore(tmp_path / "store"),
        memory_cache={},
        pool=pool,
        chunk_size=chunk_size,
    )
    results = engine.run(cells).values()
    chunks = [[index for index, _, _ in p[0]] for p in pool.payloads]
    assert sorted(i for chunk in chunks for i in chunk) == list(range(21))
    for chunk in chunks:
        assert len(chunk) % 3 == 0
        assert {i // 3 for i in chunk} == set(
            range(chunk[0] // 3, chunk[0] // 3 + len(chunk) // 3)
        )
    assert all(p[4] == (3,) * (len(p[0]) // 3) for p in pool.payloads)
    for spec, result in zip(cells, results):
        assert tree(result) == tree(execute(spec))


def test_groups_need_cacheable_untraced_fast_cells(tmp_path):
    cells = group_specs("db")
    for engine in (
        Engine(use_cache=False, memory_cache={}),
        Engine(memory_cache={}, telemetry=Telemetry()),
    ):
        engine._specs = cells
        engine._keys = [spec.cache_key() for spec in cells]
        assert engine._groups([0, 1, 2]) == [[0], [1], [2]]
    engine = Engine(memory_cache={})
    engine._specs = cells + [
        RunSpec(
            "db",
            "baseline",
            ExperimentConfig(max_instructions=BUDGET, sim_kernel="reference"),
        )
    ]
    engine._keys = [spec.cache_key() for spec in engine._specs]
    assert engine._groups([3, 0, 1, 2]) == [[3], [0, 1, 2]]


def test_chunk_reply_names_groups(tmp_path):
    specs = group_specs("db") + group_specs("jess")[:1]
    cells = tuple((i, spec, 1) for i, spec in enumerate(specs))
    _, outcomes, info = run_chunk((cells, None, None, None, (3,)))
    assert info["v"] == SNAPSHOT_VERSION
    assert [status for _, status, _ in outcomes] == ["ok"] * 4
    assert dict(info["groups"]) == {
        0: "db:baseline,bbv,hotspot",
        1: "db:baseline,bbv,hotspot",
        2: "db:baseline,bbv,hotspot",
    }
    times = dict(info["cell_times"])
    assert times[0] > 0 and times[1] == times[2] == 0.0 and times[3] > 0
