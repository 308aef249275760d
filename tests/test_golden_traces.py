"""Golden-trace regression suite: one pinned cell per adaptation scheme.

The equivalence grid proves the two kernels agree *with each other*; the
golden fixtures pin what both of them compute against a committed
snapshot, so a change that moves the simulation itself — new RNG
consumption, a reordered float, a policy tweak — fails loudly with the
first diverging metric path or decision event, even though the kernels
still agree.

Each fixture (``tests/golden/db_<scheme>.json``) holds the full
:class:`RunResult` tree, the decision-event timeline (everything except
the per-invocation ``hotspot_invoke`` spans, whose count is pinned
instead), and the cell description that produced it.

Intentional simulation changes regenerate the fixtures with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden

and commit the resulting diff — the diff *is* the review artefact: it
shows exactly which metrics and which decisions moved.

Floats are rounded to 12 significant digits on both sides (libm ulp
jitter across CI images; see ``round_floats``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.driver import SCHEMES
from tests.equivalence import (
    decision_timeline,
    describe_divergence,
    first_divergence,
    result_tree,
    round_floats,
    run_cell,
    simulated_timeline,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The pinned cell: db is single-threaded and exercises every scheme's
#: full decision lifecycle (detection, tuning walk, pinning) within the
#: budget; the seed is the config default.
GOLDEN_BENCHMARK = "db"
GOLDEN_BUDGET = 400_000
GOLDEN_KERNEL = "fast"


def golden_payload(scheme: str, kernel: str = GOLDEN_KERNEL):
    """Compute the golden payload for one scheme (fast kernel — the
    equivalence grid already proves the reference kernel matches).

    Only registered kernels, all of them bit-identical, may produce
    golden fixtures; any other name is refused outright rather than
    producing a fixture that would flap.
    """
    from repro.sim.driver import KERNEL_REGISTRY

    if kernel not in KERNEL_REGISTRY:
        raise ValueError(
            f"golden traces accept only bit-identical kernels; {kernel!r} "
            f"is not one of {sorted(KERNEL_REGISTRY)}"
        )
    result, telemetry = run_cell(
        GOLDEN_BENCHMARK, scheme, kernel, max_instructions=GOLDEN_BUDGET
    )
    events = decision_timeline(telemetry)
    invokes = len(simulated_timeline(telemetry)) - len(events)
    payload = {
        "cell": {
            "benchmark": GOLDEN_BENCHMARK,
            "scheme": scheme,
            "max_instructions": GOLDEN_BUDGET,
            "sim_kernel": kernel,
        },
        "result": result_tree(result),
        "decision_events": events,
        "hotspot_invoke_count": invokes,
    }
    # Normalise tuples to lists so on-disk JSON and recomputed payloads
    # compare structurally.
    return round_floats(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_trace(scheme, update_golden):
    path = GOLDEN_DIR / f"{GOLDEN_BENCHMARK}_{scheme}.json"
    payload = golden_payload(scheme)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden fixture rewritten: {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        "pytest tests/test_golden_traces.py --update-golden"
    )
    golden = json.loads(path.read_text())
    hit = first_divergence(golden, payload)
    if hit is not None:
        raise AssertionError(
            describe_divergence(
                f"golden {GOLDEN_BENCHMARK}/{scheme}", "golden trace", hit
            )
            + "\n(intentional change? regenerate with --update-golden "
            "and commit the diff)"
        )


def test_golden_traces_refuse_tolerance_gated_kernels():
    """A kernel outside the bit-identical registry can neither produce
    nor back a golden fixture."""
    from repro.sim.driver import KERNEL_REGISTRY

    with pytest.raises(ValueError, match="bit-identical"):
        golden_payload("baseline", kernel="vectorized")
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        payload = json.loads(path.read_text())
        assert payload["cell"]["sim_kernel"] in KERNEL_REGISTRY, path.name


def test_golden_fixtures_are_self_described():
    """Every committed fixture names the cell that produced it (so a
    reader can rerun it without reverse-engineering the test)."""
    fixtures = sorted(GOLDEN_DIR.glob("*.json"))
    assert len(fixtures) == len(SCHEMES)
    for path in fixtures:
        payload = json.loads(path.read_text())
        cell = payload["cell"]
        assert cell["benchmark"] == GOLDEN_BENCHMARK
        assert cell["max_instructions"] == GOLDEN_BUDGET
        assert payload["decision_events"], path.name
