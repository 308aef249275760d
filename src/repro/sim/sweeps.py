"""Parameter sweep utilities.

The ablation benches sweep framework knobs (performance threshold,
hot_threshold, scales); this module gives that a first-class API so users
can run their own sensitivity studies::

    from repro.sim.sweeps import sweep_parameter

    points = sweep_parameter(
        "tuning.performance_threshold", [0.01, 0.02, 0.05],
        benchmark="db", scheme="hotspot",
    )
    for p in points:
        print(p.value, p.l1d_energy_reduction, p.slowdown)
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim.config import ExperimentConfig
from repro.sim.options import ExecutionOptions
from repro.sim.results import RunResult, RunSpec
from repro.sim.engine import Engine


@dataclass
class SweepPoint:
    """One sweep sample: the knob value and the runs it produced."""

    parameter: str
    value: object
    result: RunResult
    baseline: RunResult

    def _epi(self, run: RunResult, attr: str) -> float:
        return getattr(run, attr) / run.instructions

    @property
    def l1d_energy_reduction(self) -> float:
        base = self._epi(self.baseline, "l1d_energy_nj")
        return 1 - self._epi(self.result, "l1d_energy_nj") / base

    @property
    def l2_energy_reduction(self) -> float:
        base = self._epi(self.baseline, "l2_energy_nj")
        return 1 - self._epi(self.result, "l2_energy_nj") / base

    @property
    def slowdown(self) -> float:
        base_cpi = self.baseline.cycles / self.baseline.instructions
        cpi = self.result.cycles / self.result.instructions
        return cpi / base_cpi - 1.0


def set_config_path(config: ExperimentConfig, path: str, value) -> None:
    """Set a dotted attribute path on an ExperimentConfig.

    Frozen dataclasses along the path (TuningConfig, BBVConfig,
    ScaledParameters) are rebuilt with the field replaced.
    """
    parts = path.split(".")
    target = config
    for part in parts[:-1]:
        target = getattr(target, part)
    leaf = parts[-1]
    try:
        setattr(target, leaf, value)
        return
    except AttributeError:  # frozen dataclass: rebuild and reattach
        pass
    import dataclasses

    rebuilt = dataclasses.replace(target, **{leaf: value})
    owner = config
    for part in parts[:-2]:
        owner = getattr(owner, part)
    setattr(owner, parts[-2], rebuilt)


def sweep_parameter(
    parameter: str,
    values: Sequence[object],
    benchmark: str = "db",
    scheme: str = "hotspot",
    base_config: Optional[ExperimentConfig] = None,
    max_instructions: Optional[int] = None,
    jobs: int = 1,
    use_cache: bool = True,
    engine: Optional[Engine] = None,
) -> List[SweepPoint]:
    """Run ``scheme`` (plus a baseline) at each value of ``parameter``.

    ``parameter`` is a dotted path into :class:`ExperimentConfig`, e.g.
    ``"tuning.performance_threshold"``, ``"hot_threshold"``, or
    ``"bbv.similarity_threshold"``.

    The whole sweep is one engine batch: pass ``jobs`` to fan the points
    out across worker processes, or an explicit ``engine`` to control the
    cache/store layers (the default engine reuses the shared memory cache
    and persistent store, so repeated sweeps are free).
    """
    if not values:
        raise ValueError("need at least one sweep value")
    if engine is None:
        from repro.sim.experiment import make_engine

        engine = make_engine(
            use_cache=use_cache, options=ExecutionOptions(jobs=jobs)
        )
    cells: List[RunSpec] = []
    for value in values:
        config = copy.deepcopy(base_config or ExperimentConfig())
        if max_instructions is not None:
            config.max_instructions = max_instructions
        set_config_path(config, parameter, value)
        cells.append(RunSpec(benchmark, scheme, config))
        cells.append(RunSpec(benchmark, "baseline", config))
    runs = engine.run(cells).values()
    return [
        SweepPoint(parameter, value, runs[2 * i], runs[2 * i + 1])
        for i, value in enumerate(values)
    ]
