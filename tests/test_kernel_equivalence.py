"""Differential equivalence: the fast kernel is bit-identical to the
reference interpreter.

Every cell runs twice — ``sim_kernel="reference"`` and ``"fast"`` — and
the full :class:`RunResult` tree, the simulated-clock telemetry
timeline, and the pinned configurations must match exactly (floats to
the last ulp; see ``tests/equivalence.py``).  The grid covers:

* every benchmark and every scheme (the cross-product lives in the
  ``slow``-marked suite; tier-1 keeps a representative diagonal);
* config variants that change kernel-visible behaviour: flush-policy
  resizes, pipeline CUs, alternative seeds, a lower hot threshold;
* fault-injected cells (reconfiguration denials, profiling noise, a
  forced mid-run drift) — the injection hooks must fire identically in
  both kernels.

The harness self-tests at the bottom pin the failure mode: when kernels
*do* diverge, the error names the first differing metric path or event
index rather than dumping two opaque blobs.
"""

from __future__ import annotations

import pytest

from repro.sim.config import MachineConfig
from repro.sim.driver import SCHEMES
from repro.workloads.specjvm import benchmark_names
from tests.equivalence import (
    assert_cell_equivalent,
    assert_equivalent,
    first_divergence,
    simulated_timeline,
)

#: Representative diagonal for tier-1: every benchmark appears once,
#: every scheme several times, and mtrt covers the multi-threaded
#: quantum interpreter path.
FAST_GRID = [
    ("db", "baseline"),
    ("db", "hotspot"),
    ("jack", "bbv"),
    ("jack", "hotspot"),
    ("compress", "baseline"),
    ("jess", "bbv"),
    ("javac", "hotspot"),
    ("mpegaudio", "baseline"),
    ("mtrt", "hotspot"),
    ("mtrt", "bbv"),
]

#: Config variants that reach kernel-visible branches.
CONFIG_CASES = {
    "flush-resize": {"machine": MachineConfig(resize_policy="flush")},
    "pipeline-cus": {
        "machine": MachineConfig(
            enable_pipeline_cus=True, record_reconfigurations=True
        )
    },
    "alt-seed": {"seed": 777},
    "eager-hotspots": {"hot_threshold": 2},
}

#: Fault plans that perturb the simulation itself (never cached, but
#: must still be kernel-independent).
FAULT_CASES = {
    "reconfig-deny": "seed=7,reconfig_deny=0.5",
    "profile-noise": "seed=3,profile_noise=0.25",
    "drift-retune": (
        "seed=5,profile_noise=0.05,drift_at=120000,"
        "drift_ipc_factor=0.6,drift_config_penalty=0.08"
    ),
}


@pytest.mark.parametrize("bench,scheme", FAST_GRID)
def test_kernel_equivalence_grid(bench, scheme):
    result = assert_cell_equivalent(bench, scheme)
    assert result.instructions > 0


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_kernel_equivalence_config_variants(case):
    assert_cell_equivalent(
        "db", "hotspot", config_kwargs=CONFIG_CASES[case]
    )


@pytest.mark.parametrize("scheme", ["bbv", "hotspot"])
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_kernel_equivalence_under_faults(case, scheme):
    assert_cell_equivalent(
        "jack", scheme, fault_spec=FAULT_CASES[case]
    )


@pytest.mark.slow
@pytest.mark.parametrize("bench", benchmark_names())
@pytest.mark.parametrize("scheme", SCHEMES)
def test_kernel_equivalence_full_grid(bench, scheme):
    """The full benchmark x scheme cross-product at a heavier budget."""
    assert_cell_equivalent(bench, scheme, max_instructions=1_500_000)


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_kernel_equivalence_faults_heavy(case):
    assert_cell_equivalent(
        "db", "hotspot",
        max_instructions=1_500_000,
        fault_spec=FAULT_CASES[case],
    )


# -- harness self-tests ------------------------------------------------------


def test_kernel_list_is_registry_driven():
    """The harness's kernel list is exactly the registry, reference
    first, and the registry is exactly the settable ``sim_kernel``
    values."""
    from repro.sim.config import SIM_KERNELS
    from repro.sim.driver import KERNEL_REGISTRY
    from tests.equivalence import KERNELS

    assert set(KERNELS) == set(KERNEL_REGISTRY) == set(SIM_KERNELS)
    assert KERNELS[0] == "reference"


def test_first_divergence_names_the_leaf():
    a = {"metrics": {"ipc": 1.25, "cycles": [1.0, 2.0]}}
    b = {"metrics": {"ipc": 1.25, "cycles": [1.0, 3.0]}}
    assert first_divergence(a, b) == ("$.metrics.cycles[1]", 2.0, 3.0)


def test_first_divergence_reports_missing_keys_and_lengths():
    assert first_divergence({"a": 1}, {}) == ("$.a", 1, "<absent>")
    assert first_divergence([1], [1, 2]) == ("$.length", 1, 2)
    assert first_divergence({"x": 1}, {"x": 1}) is None


def test_assert_equivalent_message_is_readable():
    with pytest.raises(AssertionError) as excinfo:
        assert_equivalent(
            "db/hotspot", {"ipc": 1.0}, {"ipc": 2.0}
        )
    message = str(excinfo.value)
    assert "db/hotspot" in message
    assert "$.ipc" in message
    assert "reference: 1.0" in message
    assert "fast:      2.0" in message


def test_timeline_excludes_wall_clock_events():
    from repro.obs.events import Telemetry

    telemetry = Telemetry()
    telemetry.emit("config_pinned", ts=1000.0, track="cu:l1d", config=(1, 0))
    telemetry.emit_wall("cell_start", cell="db/hotspot")
    timeline = simulated_timeline(telemetry)
    assert len(timeline) == 1
    assert timeline[0][0] == "config_pinned"
