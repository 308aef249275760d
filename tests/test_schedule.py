"""The engine's chunk partition, and its conformance for every ``jobs``.

Every pool round is sliced by :func:`repro.sim.schedule.plan_round`:
submission order, ``chunk_size`` cells per chunk, or — when that is
``None`` — ``ceil(n / (workers * 4))`` capped at 8.  A partition only
decides which cells share a payload, so the batch must stay
bit-identical to serial for every ``jobs``.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import Telemetry
from repro.obs.events import SCHEDULE_PLANNED
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec
from repro.sim.engine import Engine
from repro.sim.schedule import plan_round

BUDGET = 25_000



def grid() -> list:
    cfg = ExperimentConfig(max_instructions=BUDGET)
    return [
        RunSpec(name, scheme, cfg)
        for name in ("db", "jess")
        for scheme in ("baseline", "bbv", "hotspot")
    ]


def documented_partition(indices, workers, chunk_size):
    """The rule as docs/INTERNALS.md §13 states it, written out longhand."""
    size = chunk_size or min(
        8, max(1, math.ceil(len(indices) / (workers * 4)))
    )
    chunks, chunk = [], []
    for index in indices:
        chunk.append(index)
        if len(chunk) == size:
            chunks.append(chunk)
            chunk = []
    return chunks + ([chunk] if chunk else [])


class TestPlanner:
    def test_empty_round(self):
        assert plan_round([], workers=2) == []

    def test_single_cell_falls_back_to_legacy(self):
        assert plan_round([7], workers=4) == [[7]]

    def test_fewer_cells_than_workers_one_chunk_each(self):
        assert plan_round([0, 1, 2], workers=8) == [[0], [1], [2]]

    def test_cold_start_reproduces_legacy_exactly(self):
        # The partition cold rounds have always used — now the only
        # one — must not drift from the rule, for any round shape.
        for n in (0, 1, 2, 3, 5, 8, 12, 33, 100):
            for workers in (1, 2, 4):
                for chunk_size in (None, 1, 3):
                    indices = list(range(n))
                    assert plan_round(
                        indices, workers, chunk_size
                    ) == documented_partition(
                        indices, workers, chunk_size
                    ), (n, workers, chunk_size)
        # The suite's shape: 21 cells on 2 workers go 3 to a chunk.
        assert plan_round(list(range(21)), 2) == [
            list(range(start, start + 3)) for start in range(0, 21, 3)
        ]
        # 100 cells on 1 worker hit the cap of 8.
        assert [len(c) for c in plan_round(list(range(100)), 1)] == (
            [8] * 12 + [4]
        )


def test_pool_round_emits_schedule_planned():
    telemetry = Telemetry()
    specs = grid()
    with Engine(
        jobs=2, use_cache=False, memory_cache={}, telemetry=telemetry
    ) as engine:
        engine.run(specs)
    (event,) = telemetry.log.by_name(SCHEDULE_PLANNED)
    assert event.args["backend"] == "local"
    assert event.args["cells"] == len(specs)
    # Six cells on two workers: one cell per chunk.
    assert event.args["chunks"] == len(specs)
    assert event.args["actual_makespan_s"] > 0
    stats = engine.stats
    assert stats.rounds_planned == 1
    assert stats.actual_makespan_s > 0
    assert stats.rounds_lpt == 0 and stats.predicted_makespan_s == 0.0


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "local:2"])
@pytest.mark.parametrize(
    # ``fifo``: the default partition, one cell per chunk here; chunks
    # of four put cells of both benchmarks in one payload.
    "chunk_size", [None, 4], ids=["fifo", "chunks-of-4"]
)
def test_schedule_conformance_bit_identical(jobs, chunk_size):
    specs = grid()
    reference = Engine(use_cache=False, memory_cache={})
    try:
        expected = reference.run(specs).values()
    finally:
        reference.close()
    engine = Engine(
        jobs=jobs, use_cache=False, memory_cache={}, chunk_size=chunk_size
    )
    try:
        batch = engine.run(specs)
    finally:
        engine.close()
    assert batch.values() == expected
    assert [o.status for o in batch] == ["ok"] * len(specs)
