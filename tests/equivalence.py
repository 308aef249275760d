"""Differential-equivalence harness: reference kernel vs fast kernel.

The fast kernel (``sim_kernel="fast"``) is only allowed to exist because
it is *bit-identical* to the readable reference interpreter — same RNG
stream, same float operation order, same adaptation decisions.  This
module is the shared machinery that proves it for one experiment cell:

* :func:`run_cell` executes one (benchmark, scheme, config, fault plan)
  cell under a chosen kernel with a live telemetry session;
* :func:`simulated_timeline` projects the telemetry log onto its
  deterministic, simulated-clock part (wall-clock events are real time
  and legitimately differ between runs);
* :func:`first_divergence` walks two JSON-like trees and names the first
  leaf where they disagree;
* :func:`assert_equivalent` asserts full :class:`RunResult` equality and
  timeline equality, rendering the first divergence readably — the
  failure message is the debugging entry point, so it shows *where* the
  kernels split (metric path or event index), not just that they did.

Used by ``tests/test_kernel_equivalence.py`` (the grid), the golden-trace
suite, and the property tests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.faults.plan import FaultPlan
from repro.obs.events import Telemetry
from repro.sim.config import ExperimentConfig
from repro.sim.driver import KERNEL_REGISTRY, RunResult, RunSpec, execute

# The exact-diff helpers moved to tests/tolerances.py; re-exported here
# for existing callers.
from tests.tolerances import describe_divergence, first_divergence  # noqa: F401

#: The kernel names, reference first (the spec comes first).  Derived
#: from the authoritative registry so a new kernel is proven here
#: automatically.
KERNELS = tuple(sorted(KERNEL_REGISTRY, key=lambda name: name != "reference"))


def run_cell(
    benchmark: str,
    scheme: str,
    kernel: str,
    max_instructions: int = 250_000,
    config_kwargs: Optional[Dict[str, object]] = None,
    fault_spec: Optional[str] = None,
    traced: bool = True,
) -> Tuple[RunResult, Optional[Telemetry]]:
    """Execute one cell under ``kernel``; returns (result, telemetry).

    ``config_kwargs`` are extra :class:`ExperimentConfig` fields (e.g. a
    customised ``machine``); ``fault_spec`` is a
    :meth:`FaultPlan.from_spec` string for fault-injected cells.  An
    untraced cell runs without a telemetry session (and returns
    ``None`` for it), as the engine runs cells.
    """
    config = ExperimentConfig(
        max_instructions=max_instructions,
        sim_kernel=kernel,
        **(config_kwargs or {}),
    )
    telemetry = Telemetry() if traced else None
    fault_plan = FaultPlan.from_spec(fault_spec) if fault_spec else None
    result = execute(
        RunSpec(benchmark=benchmark, scheme=scheme, config=config),
        telemetry=telemetry,
        fault_plan=fault_plan,
    )
    return result, telemetry


def result_tree(result: RunResult) -> Dict[str, object]:
    """``RunResult`` as a plain JSON tree (tuples become lists)."""
    return json.loads(json.dumps(result.to_dict(), sort_keys=True))


def simulated_timeline(telemetry: Telemetry) -> List[Tuple]:
    """The deterministic projection of a telemetry session.

    Simulated-clock events only — name, instruction timestamp, track,
    duration, and sorted args.  Wall-clock events (engine scheduling) are
    stamped with real time and are excluded: two equivalent runs differ
    there by construction.
    """
    timeline = []
    for event in telemetry.log:
        if event.wall_clock:
            continue
        timeline.append(
            (
                event.name,
                event.ts,
                event.track,
                event.dur,
                tuple(sorted(event.args.items())),
            )
        )
    return timeline


def decision_timeline(telemetry: Telemetry) -> List[Tuple]:
    """Like :func:`simulated_timeline`, without the per-invocation
    ``hotspot_invoke`` spans (thousands per run; the golden fixtures pin
    their *count*, the grid tests still compare them one by one)."""
    return [
        event
        for event in simulated_timeline(telemetry)
        if event[0] != "hotspot_invoke"
    ]


def round_floats(tree: object, significant: int = 12) -> object:
    """Copy of a JSON tree with floats rounded to ``significant`` digits.

    Golden fixtures use this on both sides of the comparison: the
    simulation's arithmetic is deterministic, but ``math.*`` calls go
    through the platform's libm, whose last ulp may differ between CI
    images.  12 significant digits is far below any behavioural change
    and far above libm jitter.
    """
    if isinstance(tree, float):
        return float(f"{tree:.{significant}g}")
    if isinstance(tree, dict):
        return {k: round_floats(v, significant) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [round_floats(v, significant) for v in tree]
    return tree


def pinned_configurations(telemetry: Telemetry) -> List[Tuple]:
    """(owner/track, ts, args) of every ``config_pinned`` decision."""
    return [
        (event.track, event.ts, tuple(sorted(event.args.items())))
        for event in telemetry.log.by_name("config_pinned")
    ]


def assert_equivalent(
    cell: str,
    ref: Union[RunResult, Dict[str, object]],
    fast: Union[RunResult, Dict[str, object]],
    ref_telemetry: Optional[Telemetry] = None,
    fast_telemetry: Optional[Telemetry] = None,
) -> None:
    """Assert full result (and, if given, timeline) equality.

    Raises ``AssertionError`` whose message names the first diverging
    metric path or event index — the readable diff the harness promises.
    """
    ref_tree = result_tree(ref) if isinstance(ref, RunResult) else ref
    fast_tree = result_tree(fast) if isinstance(fast, RunResult) else fast
    if ref_tree != fast_tree:
        hit = first_divergence(ref_tree, fast_tree)
        assert hit is not None, "trees differ but no leaf divergence found"
        raise AssertionError(describe_divergence(cell, "RunResult", hit))
    if ref_telemetry is None or fast_telemetry is None:
        return
    ref_events = simulated_timeline(ref_telemetry)
    fast_events = simulated_timeline(fast_telemetry)
    for index, (event_a, event_b) in enumerate(zip(ref_events, fast_events)):
        if event_a != event_b:
            raise AssertionError(
                describe_divergence(
                    cell, f"tuning event [{index}]", ("event", event_a, event_b)
                )
            )
    if len(ref_events) != len(fast_events):
        longer = "reference" if len(ref_events) > len(fast_events) else "fast"
        extra = (ref_events if longer == "reference" else fast_events)[
            min(len(ref_events), len(fast_events))
        ]
        raise AssertionError(
            f"{cell}: event timelines differ in length "
            f"(reference={len(ref_events)}, fast={len(fast_events)}); "
            f"first extra {longer} event: {extra!r}"
        )
    assert pinned_configurations(ref_telemetry) == pinned_configurations(
        fast_telemetry
    ), f"{cell}: pinned configurations differ"


def assert_cell_equivalent(
    benchmark: str,
    scheme: str,
    max_instructions: int = 250_000,
    config_kwargs: Optional[Dict[str, object]] = None,
    fault_spec: Optional[str] = None,
) -> RunResult:
    """Run one cell under every bit-identical kernel and assert they
    cannot be told apart; returns the (shared) result for further
    assertions.

    Each kernel runs the cell twice: traced, for the timeline, and
    untraced, where the fast kernel's inlined calls take their fast
    path (a live telemetry session sends every call through
    ``_invoke``)."""
    ref, ref_telemetry = run_cell(
        benchmark, scheme, KERNELS[0],
        max_instructions, config_kwargs, fault_spec,
    )
    fast = ref
    for kernel in KERNELS[1:]:
        fast, fast_telemetry = run_cell(
            benchmark, scheme, kernel,
            max_instructions, config_kwargs, fault_spec,
        )
        cell = f"{benchmark}/{scheme}@{max_instructions}[{kernel}]" + (
            f"+faults[{fault_spec}]" if fault_spec else ""
        )
        assert_equivalent(cell, ref, fast, ref_telemetry, fast_telemetry)
        untraced, _ = run_cell(
            benchmark, scheme, kernel,
            max_instructions, config_kwargs, fault_spec, traced=False,
        )
        assert_equivalent(cell + "[untraced]", ref, untraced)
    return fast
