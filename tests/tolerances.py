"""Tolerance-testing toolkit: bounded-deviation comparison primitives.

A failure must name the cell, the metric, and the two values, not dump
opaque blobs.  The shared primitives that keep that reporting
discipline live here:

* :func:`first_divergence` / :func:`describe_divergence` — exact
  tree-diff helpers (moved from ``tests/equivalence.py``, which
  re-exports them for its existing callers);
* :func:`assert_within_tolerance` — one metric comparison under a
  relative + absolute tolerance, with explicit zero-baseline and NaN
  semantics;
* :class:`DeviationReport` — accumulates every comparison of a sweep and
  renders a worst-deviation-first report (also JSON-serialisable, so CI
  can upload it as an artifact).

Users: the bit-identical equivalence harness (``tests/equivalence.py``)
and with it the golden-trace suite take the exact tree-diff helpers;
``tests/test_tolerances.py`` pins the tolerance semantics below.  The
tolerance check and the report have no other caller yet.  They are kept
for the paper-fidelity gate (ROADMAP.md), which compares the suite's
metrics with the paper's published numbers within a tolerance.

Semantics of a tolerance check (``baseline`` is the trusted value,
``candidate`` the one under test):

* both values NaN → equal (a metric that is undefined in both runs, e.g.
  a miss rate with zero accesses, is not a deviation);
* exactly one NaN → always a failure (no tolerance covers "the metric
  stopped existing");
* otherwise the check is ``|candidate - baseline| <= abs_tol +
  rel_tol * |baseline|`` — with a zero baseline the relative term
  vanishes and ``abs_tol`` alone governs, so a spec entry for a
  possibly-zero metric must carry an absolute floor.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple


def first_divergence(
    a: object, b: object, path: str = "$"
) -> Optional[Tuple[str, object, object]]:
    """First differing leaf between two JSON-like trees, or ``None``.

    Comparison is exact — including floats: bit-identical kernels must
    perform the same float operations in the same order, so even the
    last ulp has to match.  Returns ``(path, value_in_a, value_in_b)``.
    """
    if type(a) is not type(b) and not (
        isinstance(a, (int, float))
        and isinstance(b, (int, float))
        and not isinstance(a, bool)
        and not isinstance(b, bool)
    ):
        return (path, a, b)
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            here = f"{path}.{key}"
            if key not in a:
                return (here, "<absent>", b[key])
            if key not in b:
                return (here, a[key], "<absent>")
            hit = first_divergence(a[key], b[key], here)
            if hit is not None:
                return hit
        return None
    if isinstance(a, (list, tuple)):
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            hit = first_divergence(item_a, item_b, f"{path}[{index}]")
            if hit is not None:
                return hit
        if len(a) != len(b):
            return (f"{path}.length", len(a), len(b))
        return None
    if a != b:
        return (path, a, b)
    return None


def describe_divergence(
    cell: str, kind: str, hit: Tuple[str, object, object]
) -> str:
    """Render one divergence the way a human wants to read it first."""
    path, ref_value, fast_value = hit
    return (
        f"{cell}: kernels diverge in {kind} at {path}\n"
        f"  reference: {ref_value!r}\n"
        f"  fast:      {fast_value!r}"
    )


class Deviation:
    """One recorded metric comparison (see :class:`DeviationReport`)."""

    __slots__ = (
        "cell", "metric", "baseline", "candidate",
        "abs_dev", "rel_dev", "budget", "ok",
    )

    def __init__(self, cell, metric, baseline, candidate, budget, ok):
        self.cell = cell
        self.metric = metric
        self.baseline = baseline
        self.candidate = candidate
        if math.isnan(baseline) or math.isnan(candidate):
            self.abs_dev = float("nan")
            self.rel_dev = float("nan")
        else:
            self.abs_dev = abs(candidate - baseline)
            self.rel_dev = (
                self.abs_dev / abs(baseline) if baseline else float("inf")
            ) if self.abs_dev else 0.0
        #: Fraction of the allowed budget this deviation consumed
        #: (1.0 = exactly at the tolerance; > 1.0 = failure).  Lets the
        #: report rank a 0.1%-of-a-10%-budget deviation below a
        #: 0.9%-of-a-1%-budget one.
        self.budget = budget
        self.ok = ok

    def describe(self) -> str:
        rel = (
            f"{self.rel_dev:.3%}" if math.isfinite(self.rel_dev) else "inf"
        )
        status = "ok" if self.ok else "EXCEEDED"
        return (
            f"{self.cell}: {self.metric} baseline={self.baseline!r} "
            f"candidate={self.candidate!r} rel_dev={rel} "
            f"budget_used={self.budget:.2f} {status}"
        )


class DeviationReport:
    """Accumulates tolerance checks; renders worst deviations first.

    ``record`` never raises — the harness decides what to do with
    failures (``assert_within_tolerance`` raises eagerly instead).  The
    report is the artefact the nightly grid uploads: even a fully green
    run shows how much headroom each tolerance has left.
    """

    def __init__(self) -> None:
        self.deviations: List[Deviation] = []

    def record(
        self,
        cell: str,
        metric: str,
        baseline: float,
        candidate: float,
        rel_tol: float,
        abs_tol: float = 0.0,
    ) -> Deviation:
        nan_b, nan_c = math.isnan(baseline), math.isnan(candidate)
        if nan_b or nan_c:
            ok = nan_b and nan_c
            budget = 0.0 if ok else float("inf")
        else:
            allowed = abs_tol + rel_tol * abs(baseline)
            abs_dev = abs(candidate - baseline)
            ok = abs_dev <= allowed
            budget = (
                abs_dev / allowed if allowed
                else (0.0 if abs_dev == 0.0 else float("inf"))
            )
        deviation = Deviation(cell, metric, baseline, candidate, budget, ok)
        self.deviations.append(deviation)
        return deviation

    def failures(self) -> List[Deviation]:
        return [d for d in self.deviations if not d.ok]

    def worst(self, n: int = 10) -> List[Deviation]:
        """The ``n`` comparisons that consumed the most of their budget."""
        ranked = sorted(
            self.deviations, key=lambda d: d.budget, reverse=True
        )
        return ranked[:n]

    def render(self, n: int = 10) -> str:
        """Human-first report: verdict, then worst deviations."""
        failures = self.failures()
        lines = [
            f"{len(self.deviations)} tolerance checks, "
            f"{len(failures)} exceeded"
        ]
        shown = failures + [d for d in self.worst(n) if d.ok]
        for deviation in shown[: max(n, len(failures))]:
            lines.append("  " + deviation.describe())
        return "\n".join(lines)

    def to_json(self) -> dict:
        def _f(value: float):
            return value if math.isfinite(value) else repr(value)

        return {
            "checks": len(self.deviations),
            "failures": len(self.failures()),
            "deviations": [
                {
                    "cell": d.cell,
                    "metric": d.metric,
                    "baseline": _f(d.baseline),
                    "candidate": _f(d.candidate),
                    "rel_dev": _f(d.rel_dev),
                    "budget_used": _f(d.budget),
                    "ok": d.ok,
                }
                for d in sorted(
                    self.deviations, key=lambda d: d.budget, reverse=True
                )
            ],
        }


def assert_within_tolerance(
    cell: str,
    metric: str,
    baseline: float,
    candidate: float,
    rel_tol: float,
    abs_tol: float = 0.0,
    report: Optional[DeviationReport] = None,
) -> None:
    """Assert one metric within tolerance; message names everything.

    When ``report`` is given the comparison is also recorded there (so a
    sweep can both fail fast and still render its context).
    """
    scratch = report if report is not None else DeviationReport()
    deviation = scratch.record(
        cell, metric, baseline, candidate, rel_tol, abs_tol
    )
    if not deviation.ok:
        raise AssertionError(
            deviation.describe()
            + f" (rel_tol={rel_tol}, abs_tol={abs_tol})"
        )
