"""Simulation driver: configuration, single runs, experiments, metrics.

Only the configuration and the metric helpers are imported eagerly; every
other name is imported on first access (PEP 562), so importing a
``repro.sim`` submodule never loads the simulator.
"""

from repro.sim.config import (
    BBVConfig,
    CacheConfig,
    ExperimentConfig,
    MachineConfig,
    ScaledParameters,
    TuningConfig,
    build_machine,
)
from repro.sim.metrics import (
    coefficient_of_variation,
    mean,
    population_std,
)

__all__ = [
    "BBVConfig",
    "BenchmarkComparison",
    "CacheConfig",
    "Engine",
    "EngineStats",
    "ExperimentConfig",
    "MachineConfig",
    "ResultStore",
    "RunResult",
    "RunSpec",
    "ScaledParameters",
    "SuiteResults",
    "TuningConfig",
    "build_machine",
    "coefficient_of_variation",
    "compare_schemes",
    "execute",
    "mean",
    "population_std",
    "run_benchmark",
    "run_suite",
    "sweep_parameter",
]

_LAZY = {
    "RunResult": ("repro.sim.results", "RunResult"),
    "RunSpec": ("repro.sim.results", "RunSpec"),
    "run_benchmark": ("repro.sim.driver", "run_benchmark"),
    "execute": ("repro.sim.driver", "execute"),
    "Engine": ("repro.sim.engine", "Engine"),
    "EngineStats": ("repro.sim.engine", "EngineStats"),
    "ResultStore": ("repro.sim.store", "ResultStore"),
    "BenchmarkComparison": ("repro.sim.experiment", "BenchmarkComparison"),
    "SuiteResults": ("repro.sim.experiment", "SuiteResults"),
    "compare_schemes": ("repro.sim.experiment", "compare_schemes"),
    "run_suite": ("repro.sim.experiment", "run_suite"),
    "sweep_parameter": ("repro.sim.sweeps", "sweep_parameter"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
