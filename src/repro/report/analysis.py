"""Post-run analysis: per-hotspot and per-phase decision reports.

Formalises the forensic views used while calibrating the reproduction
(`tools/diagnose.py`): which hotspots were managed, what each tuner
measured, and what it chose.  Useful both for debugging adaptation
behaviour on new workloads and for teaching what the framework does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.report.tables import render_table


@dataclass
class HotspotReportRow:
    """One managed (or unmanaged) hotspot's story."""

    name: str
    kind: str
    mean_size: float
    invocations: int
    best_config: Optional[Tuple[int, ...]]
    best_settings: Optional[Tuple[str, ...]]
    trials: int
    tuning_rounds: int
    demotions: int
    mean_ipc: Optional[float]
    managed: bool


def hotspot_report(policy, run_result=None) -> List[HotspotReportRow]:
    """Per-hotspot rows from a finished :class:`HotspotACEPolicy` run.

    ``run_result`` (a :class:`repro.sim.results.RunResult`) enriches rows
    with DO-database invocation counts when available.
    """
    summaries = run_result.hotspot_summaries if run_result else {}
    machine = policy.machine
    rows: List[HotspotReportRow] = []

    def settings_of(state):
        if state.best is None:
            return None
        return tuple(
            machine.cus[cu_name].describe_setting(index)
            for cu_name, index in zip(state.cu_names, state.best.config)
        )

    for name, state in policy.states.items():
        summary = summaries.get(name)
        acc = policy._ipc.get(name)
        rows.append(
            HotspotReportRow(
                name=name,
                kind=policy.kind_of.get(name, "?"),
                mean_size=(
                    summary.mean_size if summary else 0.0
                ),
                invocations=(
                    summary.invocations if summary else 0
                ),
                best_config=(
                    state.best.config if state.best else None
                ),
                best_settings=settings_of(state),
                trials=len(state.outcomes),
                tuning_rounds=state.tuning_rounds,
                demotions=state.demotions,
                mean_ipc=acc.mean if acc and acc.n else None,
                managed=True,
            )
        )
    for name in policy.unmanaged:
        summary = summaries.get(name)
        rows.append(
            HotspotReportRow(
                name=name,
                kind="unmanaged",
                mean_size=summary.mean_size if summary else 0.0,
                invocations=summary.invocations if summary else 0,
                best_config=None,
                best_settings=None,
                trials=0,
                tuning_rounds=0,
                demotions=0,
                mean_ipc=None,
                managed=False,
            )
        )
    rows.sort(key=lambda r: (not r.managed, -r.mean_size))
    return rows


def render_hotspot_report(policy, run_result=None) -> str:
    rows = hotspot_report(policy, run_result)
    table = [
        [
            r.name,
            r.kind,
            int(r.mean_size),
            r.invocations,
            "/".join(r.best_settings) if r.best_settings else "-",
            r.trials,
            r.demotions,
            f"{r.mean_ipc:.2f}" if r.mean_ipc else "-",
        ]
        for r in rows
    ]
    return render_table(
        ["hotspot", "class", "size", "invocations", "chosen",
         "trials", "demotions", "IPC"],
        table,
        title="Per-hotspot adaptation report",
    )


@dataclass
class PhaseReportRow:
    """One BBV phase's story."""

    pid: int
    intervals: int
    tuned: bool
    trials: int
    best_config: Optional[Tuple[int, ...]]
    mean_ipc: float
    demotions: int


def phase_report(policy) -> List[PhaseReportRow]:
    """Per-phase rows from a finished :class:`BBVACEPolicy` run."""
    rows: List[PhaseReportRow] = []
    for pid, phase in policy.classifier.phases.items():
        entry = policy.entries.get(pid)
        rows.append(
            PhaseReportRow(
                pid=pid,
                intervals=phase.intervals,
                tuned=bool(entry and entry.tuned),
                trials=len(entry.outcomes) if entry else 0,
                best_config=(
                    entry.best.config
                    if entry and entry.best
                    else None
                ),
                mean_ipc=phase.mean_ipc,
                demotions=entry.demotions if entry else 0,
            )
        )
    rows.sort(key=lambda r: -r.intervals)
    return rows


def render_phase_report(policy) -> str:
    rows = phase_report(policy)
    table = [
        [
            r.pid,
            r.intervals,
            "yes" if r.tuned else "no",
            r.trials,
            str(r.best_config) if r.best_config else "-",
            f"{r.mean_ipc:.2f}",
        ]
        for r in rows
    ]
    return render_table(
        ["phase", "intervals", "tuned", "trials", "best", "IPC"],
        table,
        title="Per-phase adaptation report (BBV)",
    )
