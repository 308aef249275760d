"""The engine's lockstep groups, and their conformance for every ``jobs``.

Every batch's pending cells are split by
:func:`repro.sim.schedule.plan_round`: cells sharing a lockstep key form
one group at their first member's place, every other cell is a group of
its own, and on the pool each group is one submission.  Grouping only
decides which cells share a VM and a payload, so the batch must stay
bit-identical to serial for every ``jobs``.
"""

from __future__ import annotations

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


class TestPlanner:
    def test_empty_round(self):
        assert plan_round([], lambda index: "key") == []

    def test_cells_without_a_key_run_alone(self):
        assert plan_round([7, 3, 5], lambda index: None) == [[7], [3], [5]]

    def test_single_cell_is_a_group_of_its_own(self):
        assert plan_round([4], lambda index: None) == [[4]]
        assert plan_round([4], lambda index: "key") == [[4]]

    def test_keyed_cells_group_at_their_first_member(self):
        keys = {0: "a", 1: None, 2: "b", 3: "a", 4: "b", 5: None}
        assert plan_round([0, 1, 2, 3, 4, 5], keys.get) == [
            [0, 3], [1], [2, 4], [5]
        ]


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
    # A live session runs every cell alone: one cell per chunk.
    assert event.args["chunks"] == len(specs)
    assert event.args["actual_makespan_s"] > 0
    stats = engine.stats
    assert stats.rounds_planned == 1
    assert stats.actual_makespan_s > 0
    assert stats.rounds_lpt == 0 and stats.predicted_makespan_s == 0.0


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "local:2"])
@pytest.mark.parametrize(
    # ``grouped``: each benchmark's three cells run in lockstep (one
    # chunk on the pool); ``solo``: a live telemetry session runs every
    # cell alone.
    "telemetry", [None, Telemetry], ids=["grouped", "solo"]
)
def test_schedule_conformance_bit_identical(jobs, telemetry):
    specs = grid()
    reference = Engine(use_cache=False, memory_cache={})
    try:
        expected = reference.run(specs).values()
    finally:
        reference.close()
    engine = Engine(
        jobs=jobs,
        memory_cache={},
        telemetry=None if telemetry is None else telemetry(),
    )
    try:
        batch = engine.run(specs)
    finally:
        engine.close()
    assert batch.values() == expected
    assert [o.status for o in batch] == ["ok"] * len(specs)
