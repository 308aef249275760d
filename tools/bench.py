#!/usr/bin/env python
"""Perf-regression benchmark suite for the simulation kernels.

Times representative cells and writes a ``BENCH_<date>.json`` snapshot:

* ``kernel:<benchmark>/<scheme>`` — one full simulation under the
  reference kernel and under the fast kernel, interleaved min-of-N (both
  kernels are timed back to back inside each repetition, so machine
  noise hits both alike).  The heaviest cells run at double budget —
  these are the numbers the fast-kernel default is gated on.
* ``engine:cold`` — a suite batch (benchmarks x 3 schemes) against an
  empty persistent store (every cell simulates);
* ``engine:warm`` — the same batch again on the populated store (every
  cell is a store hit; measures the cache read path);
* ``engine:jobs2`` — the same batch, fresh store, two worker processes,
  including the pool spawn + warm-up a first batch pays;
* ``obs:overhead`` — telemetry cost on one hotspot cell, interleaved
  min-of-N over three variants: ``off`` (no telemetry argument at all),
  ``null`` (the explicit ``NULL_TELEMETRY`` sink — the instrumented-but-
  disabled path every untraced run takes), and ``capture`` (a live
  ``Telemetry`` session).  The gate holds ``null`` within noise of
  ``off``; the ``capture`` ratio is recorded as context, not gated —
  tracing is opt-in and allowed to cost something.
* ``engine:parallel-efficiency`` — steady-state scheduling cost: the
  same batch (caches off, so every cell simulates) through a serial
  engine versus a jobs=2 engine whose persistent pool is already warm.
  The pool spawn is deliberately outside the timed region — a
  persistent pool pays it once per engine, not per batch — and the
  host's CPU count is recorded so the gate can be interpreted.
* ``engine:makespan-skew`` — the scheduler cell: a deliberately skewed
  batch (10 light cells + 2 heavy cells at ~10x the light budget, the
  heavies *last* in submission order) through two warm jobs=2 engines
  sharing one pre-trained cost model — one under ``schedule="fifo"``
  (the legacy count-based chunks pair both heavies into the final
  chunk, serialising them on one worker), one under ``schedule="lpt"``
  (cost-balanced packing runs the heavies in parallel up front).  The
  gate requires LPT to beat FIFO by ``SKEW_MIN_SPEEDUP`` wall clock on
  a multi-core host; on a single-core host the ratio is recorded, not
  gated (there is no parallelism for the plan to exploit).

For the *kernel* cells the compared statistic is CPU time
(``time.process_time``): single-process, so it is the less noisy clock.
For the *engine* cells the primary statistic is **wall time** — a
multi-process batch burns its CPU in the workers, where the parent's
``process_time`` cannot see it, so the engine cells' ``cpu_s`` is
recorded only as context and must never be compared.

``--check --baseline BENCH_x.json`` exits non-zero when the fast
kernel's speedup collapses against the committed baseline (tolerance is
deliberately loose: this is a smoke gate against "someone pessimised the
fast path", not a microbenchmark).  The parallel-efficiency gate is
core-aware: on a multi-core host jobs=2 must beat serial cold outright;
on a single-core host that is physically impossible, so the gate bounds
the parallelism overhead instead (``SINGLE_CORE_OVERHEAD``).

Usage::

    PYTHONPATH=src python tools/bench.py                 # full run
    PYTHONPATH=src python tools/bench.py --quick         # CI smoke: 300k budget, 1 repeat
    PYTHONPATH=src python tools/bench.py --quick --check --baseline BENCH_2026-08-06.json
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.sim.engine import Engine
from repro.sim.experiment import run_suite
from repro.sim.store import ResultStore

SCHEMA = 1

#: (benchmark, scheme, heavy) — ``heavy`` cells run at 2x budget; they
#: are the suite's dominant cost and the speedup gate's subject.
KERNEL_CELLS = (
    ("db", "baseline", True),
    ("jack", "baseline", True),
    ("db", "bbv", False),
    ("db", "hotspot", False),
    ("mtrt", "hotspot", False),
)

#: Suite subset for the engine cells (x 3 schemes each).
ENGINE_BENCHMARKS = ("db", "jess")

#: --check tolerances.  A fast-kernel speedup may wobble with machine
#: load; it must stay above an absolute floor and above a fraction of
#: the committed baseline.
SPEEDUP_ABS_FLOOR = 1.25
SPEEDUP_REL_TOLERANCE = 0.5
#: The warm engine pass serves every cell from the store; it must beat
#: the cold pass outright (wall clock — see the module docstring).
WARM_COLD_FACTOR = 0.9
#: On a single-core host a jobs=2 batch cannot beat the serial pass on
#: raw simulation time; the gate instead requires the steady-state
#: parallel overhead (chunk pickling, result shipping, scheduling) to
#: stay within this factor of the serial wall clock.
SINGLE_CORE_OVERHEAD = 1.15
#: The makespan-skew cell: light/heavy split and the LPT-vs-FIFO
#: wall-clock gate (multi-core hosts only; see the module docstring).
SKEW_LIGHT_CELLS = 10
SKEW_HEAVY_CELLS = 2
SKEW_FACTOR = 10
SKEW_MIN_SPEEDUP = 1.3
#: The instrumented-but-disabled telemetry path (NULL_TELEMETRY sink)
#: must stay within noise of running with no telemetry argument at all:
#: a multiplicative bound plus a small absolute slack so sub-second
#: cells don't fail on scheduler jitter.
OBS_NULL_OVERHEAD_FACTOR = 1.15
OBS_ABS_SLACK_S = 0.05


def _time_once(fn: Callable[[], object]) -> Dict[str, float]:
    gc.collect()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    fn()
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
    }


def _merge_min(best: Optional[Dict[str, float]], sample: Dict[str, float]):
    if best is None:
        return dict(sample)
    return {key: min(best[key], sample[key]) for key in best}


def bench_kernel_cell(
    benchmark: str, scheme: str, budget: int, repeats: int
) -> Dict[str, object]:
    """Interleaved min-of-N timing of one cell under both kernels."""
    timings: Dict[str, Optional[Dict[str, float]]] = {
        "reference": None, "fast": None,
    }
    for _ in range(repeats):
        for kernel in ("reference", "fast"):
            spec = RunSpec(
                benchmark, scheme,
                ExperimentConfig(
                    max_instructions=budget, sim_kernel=kernel
                ),
            )
            sample = _time_once(lambda spec=spec: execute(spec))
            timings[kernel] = _merge_min(timings[kernel], sample)
    reference, fast = timings["reference"], timings["fast"]
    return {
        "budget": budget,
        "repeats": repeats,
        "reference": reference,
        "fast": fast,
        "speedup_wall": reference["wall_s"] / fast["wall_s"],
        "speedup_cpu": reference["cpu_s"] / fast["cpu_s"],
    }


def bench_obs_overhead(budget: int, repeats: int) -> Dict[str, object]:
    """Interleaved min-of-N telemetry-overhead timing of one hot cell.

    All three variants run back to back inside each repetition so
    machine noise hits them alike; CPU time is the compared statistic
    (single process, the less noisy clock).
    """
    from repro.obs import NULL_TELEMETRY, Telemetry

    def spec() -> RunSpec:
        return RunSpec(
            "db", "hotspot", ExperimentConfig(max_instructions=budget)
        )

    variants: Dict[str, Optional[Dict[str, float]]] = {
        "off": None, "null": None, "capture": None,
    }
    for _ in range(repeats):
        variants["off"] = _merge_min(
            variants["off"], _time_once(lambda: execute(spec()))
        )
        variants["null"] = _merge_min(
            variants["null"],
            _time_once(lambda: execute(spec(), telemetry=NULL_TELEMETRY)),
        )
        variants["capture"] = _merge_min(
            variants["capture"],
            _time_once(lambda: execute(spec(), telemetry=Telemetry())),
        )
    off, null, capture = (
        variants["off"], variants["null"], variants["capture"]
    )
    return {
        "budget": budget,
        "repeats": repeats,
        "off": off,
        "null": null,
        "capture": capture,
        "null_ratio_cpu": null["cpu_s"] / off["cpu_s"],
        "capture_ratio_cpu": capture["cpu_s"] / off["cpu_s"],
    }


def bench_engine_cells(budget: int, repeats: int) -> Dict[str, object]:
    """Cold store / warm store / jobs=2 suite batches (fast kernel)."""
    config = ExperimentConfig(max_instructions=budget)
    cells: Dict[str, Optional[Dict[str, float]]] = {
        "engine:cold": None, "engine:warm": None, "engine:jobs2": None,
    }
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
            store = ResultStore(Path(tmp))

            def cold():
                run_suite(
                    ENGINE_BENCHMARKS, config,
                    engine=Engine(store=store, memory_cache={}),
                )

            def warm():
                run_suite(
                    ENGINE_BENCHMARKS, config,
                    engine=Engine(store=store, memory_cache={}),
                )

            cells["engine:cold"] = _merge_min(
                cells["engine:cold"], _time_once(cold)
            )
            cells["engine:warm"] = _merge_min(
                cells["engine:warm"], _time_once(warm)
            )
        with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
            store2 = ResultStore(Path(tmp))
            engine2 = Engine(jobs=2, store=store2, memory_cache={})

            def jobs2():
                run_suite(ENGINE_BENCHMARKS, config, engine=engine2)

            # Timed region includes pool spawn + worker warm-up — the
            # cost a first batch actually pays; shutdown is not timed
            # (a persistent pool never pays it per batch).
            cells["engine:jobs2"] = _merge_min(
                cells["engine:jobs2"], _time_once(jobs2)
            )
            engine2.close()
    n_cells = len(ENGINE_BENCHMARKS) * 3
    host_cpus = os.cpu_count() or 1
    out = {
        name: dict(
            timing, budget=budget, cells=n_cells, host_cpus=host_cpus
        )
        for name, timing in cells.items()
    }
    out["engine:parallel-efficiency"] = bench_parallel_efficiency(
        config, repeats, n_cells
    )
    out["engine:makespan-skew"] = bench_makespan_skew(budget, repeats)
    return out


def _skew_specs(light_budget: int, heavy_budget: int) -> list:
    """10 light + 2 heavy cells, heavies last in submission order.

    Distinct seeds keep the cells' fingerprints distinct (no dedup
    collapse) while the cost key — benchmark/scheme/kernel/budget
    bucket — still groups all lights together and all heavies together,
    which is exactly what the scheduler's estimates key on.
    """
    lights = [
        RunSpec(
            "db",
            "baseline",
            ExperimentConfig(max_instructions=light_budget, seed=seed),
        )
        for seed in range(SKEW_LIGHT_CELLS)
    ]
    heavies = [
        RunSpec(
            "db",
            "baseline",
            ExperimentConfig(max_instructions=heavy_budget, seed=100 + n),
        )
        for n in range(SKEW_HEAVY_CELLS)
    ]
    return lights + heavies


def bench_makespan_skew(budget: int, repeats: int) -> Dict[str, object]:
    """LPT vs FIFO wall clock on a deliberately skewed jobs=2 batch.

    One untimed training batch teaches a shared cost model the ~10:1
    light/heavy split; then two warm engines run the same batch with
    caches off — identical work, identical results, only the chunk plan
    differs.  FIFO's count-based chunks pair both heavies into the last
    chunk (they serialise on one worker after the lights drain); LPT
    fronts them on separate workers.
    """
    from repro.sim.costmodel import CostModel

    light_budget = max(5_000, budget // 2)
    heavy_budget = light_budget * SKEW_FACTOR
    specs = _skew_specs(light_budget, heavy_budget)
    model = CostModel()
    trainer = Engine(
        jobs=2, use_cache=False, memory_cache={}, cost_model=model
    )
    try:
        trainer.run(specs)  # untimed: teaches the model the skew
    finally:
        trainer.close()
    engines = {
        "fifo": Engine(
            jobs=2,
            use_cache=False,
            memory_cache={},
            schedule="fifo",
            cost_model=model,
        ),
        "lpt": Engine(
            jobs=2,
            use_cache=False,
            memory_cache={},
            schedule="lpt",
            cost_model=model,
        ),
    }
    best: Dict[str, Optional[Dict[str, float]]] = {
        "fifo": None, "lpt": None,
    }
    try:
        # Pool spawn + benchmark warm-up untimed, as in the
        # parallel-efficiency cell: one throwaway light cell each.
        warm = [
            RunSpec(
                "db",
                "baseline",
                ExperimentConfig(max_instructions=light_budget, seed=999),
            )
        ]
        for engine in engines.values():
            engine.run(warm)
        for _ in range(repeats):
            for mode, engine in engines.items():
                best[mode] = _merge_min(
                    best[mode],
                    _time_once(lambda e=engine: e.run(specs)),
                )
        predicted = engines["lpt"].stats.predicted_makespan_s
    finally:
        for engine in engines.values():
            engine.close()
    fifo_wall = best["fifo"]["wall_s"]
    lpt_wall = best["lpt"]["wall_s"]
    return {
        "light_budget": light_budget,
        "heavy_budget": heavy_budget,
        "cells": len(specs),
        "jobs": 2,
        "repeats": repeats,
        "fifo_wall_s": fifo_wall,
        "lpt_wall_s": lpt_wall,
        "speedup_wall": fifo_wall / lpt_wall,
        "lpt_predicted_makespan_s": predicted,
        "host_cpus": os.cpu_count() or 1,
    }


def bench_parallel_efficiency(
    config: ExperimentConfig, repeats: int, n_cells: int
) -> Dict[str, object]:
    """Steady-state serial vs warm-pool jobs=2 batch wall clock.

    Both engines run with caches off so every cell simulates every time;
    the parallel engine's pool is spawned and warmed by an untimed
    throwaway batch first (a persistent pool pays that once per engine,
    not per batch).
    """
    specs = [
        RunSpec(benchmark, scheme, config)
        for benchmark in ENGINE_BENCHMARKS
        for scheme in ("baseline", "bbv", "hotspot")
    ]
    serial_engine = Engine(jobs=1, use_cache=False, memory_cache={})
    parallel_engine = Engine(jobs=2, use_cache=False, memory_cache={})
    try:
        parallel_engine.run(specs)  # spawn + warm the pool, untimed
        serial_best: Optional[Dict[str, float]] = None
        parallel_best: Optional[Dict[str, float]] = None
        for _ in range(repeats):
            serial_best = _merge_min(
                serial_best,
                _time_once(lambda: serial_engine.run(specs)),
            )
            parallel_best = _merge_min(
                parallel_best,
                _time_once(lambda: parallel_engine.run(specs)),
            )
    finally:
        parallel_engine.close()
    serial_wall = serial_best["wall_s"]
    parallel_wall = parallel_best["wall_s"]
    return {
        "budget": config.max_instructions,
        "cells": n_cells,
        "jobs": 2,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "wall_ratio": serial_wall / parallel_wall,
        "host_cpus": os.cpu_count() or 1,
    }


def run_bench(budget: int, repeats: int, mode: str) -> Dict[str, object]:
    cells: Dict[str, object] = {}
    for benchmark, scheme, heavy in KERNEL_CELLS:
        cell_budget = budget * 2 if heavy else budget
        name = f"kernel:{benchmark}/{scheme}"
        print(f"  {name} @{cell_budget} ...", flush=True)
        cells[name] = bench_kernel_cell(
            benchmark, scheme, cell_budget, repeats
        )
        entry = cells[name]
        print(
            f"    ref cpu={entry['reference']['cpu_s']:.3f}s "
            f"fast cpu={entry['fast']['cpu_s']:.3f}s "
            f"speedup={entry['speedup_cpu']:.2f}x"
        )
    print("  obs:overhead ...", flush=True)
    cells["obs:overhead"] = bench_obs_overhead(budget, repeats)
    obs = cells["obs:overhead"]
    print(
        f"    off cpu={obs['off']['cpu_s']:.3f}s "
        f"null={obs['null_ratio_cpu']:.3f}x "
        f"capture={obs['capture_ratio_cpu']:.3f}x"
    )
    print("  engine cells ...", flush=True)
    cells.update(bench_engine_cells(budget // 4, max(1, repeats - 3)))
    efficiency = cells["engine:parallel-efficiency"]
    print(
        f"    parallel-efficiency: serial "
        f"wall={efficiency['serial_wall_s']:.3f}s warm-pool jobs2 "
        f"wall={efficiency['parallel_wall_s']:.3f}s "
        f"ratio={efficiency['wall_ratio']:.2f}x "
        f"(host_cpus={efficiency['host_cpus']})"
    )
    skew = cells["engine:makespan-skew"]
    print(
        f"    makespan-skew: fifo wall={skew['fifo_wall_s']:.3f}s "
        f"lpt wall={skew['lpt_wall_s']:.3f}s "
        f"speedup={skew['speedup_wall']:.2f}x "
        f"(host_cpus={skew['host_cpus']})"
    )

    kernel_entries = {
        name: entry for name, entry in cells.items()
        if name.startswith("kernel:")
    }
    heavy_names = [
        f"kernel:{b}/{s}" for b, s, heavy in KERNEL_CELLS if heavy
    ]
    summary = {
        "min_kernel_speedup_cpu": min(
            e["speedup_cpu"] for e in kernel_entries.values()
        ),
        "max_kernel_speedup_cpu": max(
            e["speedup_cpu"] for e in kernel_entries.values()
        ),
        "heaviest_cells": {
            name: cells[name]["speedup_cpu"] for name in heavy_names
        },
        "parallel_wall_ratio": efficiency["wall_ratio"],
        "makespan_skew_speedup_wall": skew["speedup_wall"],
        "host_cpus": efficiency["host_cpus"],
        "obs_null_ratio_cpu": obs["null_ratio_cpu"],
        "obs_capture_ratio_cpu": obs["capture_ratio_cpu"],
    }
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "mode": mode,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "budget": budget,
        "repeats": repeats,
        "cells": cells,
        "summary": summary,
    }


class _GateTable:
    """Collects one row per gate and renders them as one aligned delta
    table: every cell's current value next to its baseline value and
    the requirement, pass/fail per gate — never first-failure-only."""

    HEADERS = ("cell", "metric", "current", "baseline", "required", "status")

    def __init__(self) -> None:
        self.rows: list = []
        self.failures = 0

    def gate(
        self,
        cell: str,
        metric: str,
        value: str,
        base: str,
        required: str,
        passed: Optional[bool],
    ) -> None:
        """``passed=None`` records an ungated context row (``info``)."""
        if passed is None:
            status = "info"
        elif passed:
            status = "ok"
        else:
            status = "REGRESSION"
            self.failures += 1
        self.rows.append((cell, metric, value, base, required, status))

    def render(self) -> str:
        rows = [self.HEADERS] + [
            tuple(str(field) for field in row) for row in self.rows
        ]
        widths = [
            max(len(row[column]) for row in rows)
            for column in range(len(self.HEADERS))
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  "
                + "  ".join(
                    field.ljust(width)
                    for field, width in zip(row, widths)
                ).rstrip()
            )
            if index == 0:
                lines.append(
                    "  " + "  ".join("-" * width for width in widths)
                )
        return "\n".join(lines)


def _base_value(base_cells, name, key) -> str:
    entry = base_cells.get(name)
    if not isinstance(entry, dict) or key not in entry:
        return "-"
    value = entry[key]
    if isinstance(value, dict):
        return "-"
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def check_against_baseline(
    current: Dict[str, object], baseline: Dict[str, object]
) -> int:
    """Regression gate; returns the number of failures (0 = pass).

    Every gated metric is evaluated and printed as one per-cell delta
    table (current vs baseline vs requirement); the return value counts
    the failing gates, so a run with three regressions reports all
    three, not just the first.
    """
    table = _GateTable()
    base_cells = baseline.get("cells", {})
    for name, entry in current["cells"].items():
        if not name.startswith("kernel:"):
            continue
        speedup = entry["speedup_cpu"]
        base = base_cells.get(name)
        required = SPEEDUP_ABS_FLOOR
        if base is not None:
            required = max(
                required, base["speedup_cpu"] * SPEEDUP_REL_TOLERANCE
            )
        table.gate(
            name,
            "speedup_cpu",
            f"{speedup:.2f}x",
            _base_value(base_cells, name, "speedup_cpu"),
            f">= {required:.2f}x",
            speedup >= required,
        )
    cold = current["cells"].get("engine:cold")
    warm = current["cells"].get("engine:warm")
    if cold and warm:
        # Wall clock on purpose: engine batches burn CPU in worker
        # processes the parent's process_time cannot see.
        limit = cold["wall_s"] * WARM_COLD_FACTOR
        table.gate(
            "engine:warm",
            "wall_s",
            f"{warm['wall_s']:.3f}s",
            _base_value(base_cells, "engine:warm", "wall_s"),
            f"<= {limit:.3f}s (cold x {WARM_COLD_FACTOR})",
            warm["wall_s"] <= limit,
        )
    obs = current["cells"].get("obs:overhead")
    if obs:
        limit = (
            obs["off"]["cpu_s"] * OBS_NULL_OVERHEAD_FACTOR
            + OBS_ABS_SLACK_S
        )
        table.gate(
            "obs:overhead",
            "null_cpu_s",
            f"{obs['null']['cpu_s']:.3f}s",
            "-",
            f"<= {limit:.3f}s (off={obs['off']['cpu_s']:.3f}s)",
            obs["null"]["cpu_s"] <= limit,
        )
        table.gate(
            "obs:overhead",
            "capture_ratio_cpu",
            f"{obs['capture_ratio_cpu']:.2f}x",
            _base_value(base_cells, "obs:overhead", "capture_ratio_cpu"),
            "(recorded, not gated)",
            None,
        )
    efficiency = current["cells"].get("engine:parallel-efficiency")
    if efficiency:
        cpus = int(efficiency.get("host_cpus", 1))
        parallel = efficiency["parallel_wall_s"]
        serial = efficiency["serial_wall_s"]
        if cpus >= 2:
            passed = parallel < serial
            requirement = f"< serial {serial:.3f}s ({cpus} cpus)"
        else:
            passed = parallel <= serial * SINGLE_CORE_OVERHEAD
            requirement = (
                f"<= {serial * SINGLE_CORE_OVERHEAD:.3f}s "
                f"(1 cpu: serial x {SINGLE_CORE_OVERHEAD})"
            )
        table.gate(
            "engine:parallel-efficiency",
            "parallel_wall_s",
            f"{parallel:.3f}s",
            _base_value(
                base_cells, "engine:parallel-efficiency", "parallel_wall_s"
            ),
            requirement,
            passed,
        )
    skew = current["cells"].get("engine:makespan-skew")
    if skew:
        cpus = int(skew.get("host_cpus", 1))
        speedup = skew["speedup_wall"]
        base = _base_value(
            base_cells, "engine:makespan-skew", "speedup_wall"
        )
        if cpus >= 2:
            # The scheduler's raison d'être: on a skewed batch LPT must
            # beat the legacy FIFO plan by a real margin.
            table.gate(
                "engine:makespan-skew",
                "speedup_wall",
                f"{speedup:.2f}x",
                base,
                f">= {SKEW_MIN_SPEEDUP:.2f}x ({cpus} cpus)",
                speedup >= SKEW_MIN_SPEEDUP,
            )
        else:
            # One core: both plans serialise; nothing to gate.
            table.gate(
                "engine:makespan-skew",
                "speedup_wall",
                f"{speedup:.2f}x",
                base,
                "(1 cpu: recorded, not gated)",
                None,
            )
    print(table.render())
    return table.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes (300k-instruction cells, 1 repetition)",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="instruction budget per kernel cell (heavy cells run 2x)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="repetitions per cell (minimum is reported)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="output path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when speedups regress against --baseline",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="committed BENCH_*.json to compare against in --check mode",
    )
    args = parser.parse_args(argv)

    budget = args.budget or (300_000 if args.quick else 2_000_000)
    repeats = args.repeats or (1 if args.quick else 5)
    mode = "quick" if args.quick else "full"

    print(f"bench: mode={mode} budget={budget} repeats={repeats}")
    payload = run_bench(budget, repeats, mode)

    output = args.output or Path(
        __file__
    ).resolve().parent.parent / f"BENCH_{payload['date']}.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    summary = payload["summary"]
    print(
        "kernel speedups (cpu): "
        f"min={summary['min_kernel_speedup_cpu']:.2f}x "
        f"max={summary['max_kernel_speedup_cpu']:.2f}x; heaviest: "
        + ", ".join(
            f"{name.split(':', 1)[1]}={ratio:.2f}x"
            for name, ratio in summary["heaviest_cells"].items()
        )
    )

    if args.check:
        if args.baseline is None or not args.baseline.exists():
            print(
                "check: no baseline given/found — recording only "
                "(first run is the baseline)",
            )
            return 0
        baseline = json.loads(args.baseline.read_text())
        print(f"check: against {args.baseline}")
        failures = check_against_baseline(payload, baseline)
        if failures:
            print(f"check: {failures} regression(s)")
            return 1
        print("check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
