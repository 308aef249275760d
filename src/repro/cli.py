"""Command-line interface: regenerate any exhibit of the paper.

Examples::

    python -m repro figure3
    python -m repro table4 --benchmarks db javac --instructions 2000000
    python -m repro all --instructions 6000000
    python -m repro quick   # one-benchmark smoke run
    python -m repro run db --scheme hotspot --trace out.json --metrics

The ``run`` command executes a single benchmark/scheme cell with
telemetry: ``--trace PATH`` writes a Chrome-trace JSON loadable in
``chrome://tracing`` / Perfetto (one track per CU, one per hotspot, the
policy decision lane, and the engine worker lane) and works for any
``--jobs`` — with ``--jobs 4`` the workers capture their tuning events
and the engine clock-aligns them into one merged trace with per-worker
tracks (docs/INTERNALS.md §15).  ``--jobs`` is the one execution-width
flag: 1 (the default) runs every cell in this process, N > 1 on N
warm worker processes.
``--metrics`` prints the event/metric summary tables, ``--progress``
streams a live per-cell heartbeat (done/total, in-flight, ETA) to
stderr, ``--record [DIR]`` writes a flight-recorder JSONL manifest of
the run, and ``--stats-json PATH`` (all available on every command)
dumps the engine's counters as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from time import perf_counter
from typing import List, Optional

from repro.report import exhibits
from repro.sim.config import SIM_KERNELS, ExperimentConfig
from repro.sim.experiment import run_suite
from repro.sim.options import ExecutionOptions, check_at_least
from repro.sim.results import SCHEMES, RunSpec
from repro.workloads.names import BENCHMARK_NAMES

#: ``quick``'s instruction budget when ``--instructions`` is not given.
QUICK_INSTRUCTIONS = 1_500_000

SUITE_EXHIBITS = {
    "figure1": exhibits.figure1,
    "energy": exhibits.energy_breakdown,
    "table1": exhibits.table1,
    "table4": exhibits.table4,
    "table5": exhibits.table5,
    "table6": exhibits.table6,
    "figure3": exhibits.figure3,
    "figure4": exhibits.figure4,
}

STATIC_EXHIBITS = {
    "table2": lambda: exhibits.table2(),
    "table3": lambda: exhibits.table3(),
}

ALL_EXHIBITS = [
    "figure1", "table1", "table2", "table3", "table4", "table5",
    "table6", "figure3", "figure4", "energy",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ace",
        description=(
            "Reproduction of 'Effective Adaptive Computing Environment "
            "Management via Dynamic Optimization' (CGO 2005): regenerate "
            "the paper's tables and figures on synthetic SPECjvm98 "
            "stand-ins."
        ),
    )
    parser.add_argument(
        "exhibit",
        choices=ALL_EXHIBITS + ["all", "quick", "run"],
        help="which exhibit to regenerate ('all' for every one, 'quick' "
        "for a fast single-benchmark smoke run, 'run' for a single "
        "traced benchmark/scheme cell)",
    )
    parser.add_argument(
        "bench",
        nargs="?",
        choices=list(BENCHMARK_NAMES),
        default=None,
        help="benchmark for the 'run' command",
    )
    parser.add_argument(
        "--scheme",
        choices=list(SCHEMES),
        default="hotspot",
        help="adaptation scheme for the 'run' command (default: hotspot)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        choices=list(BENCHMARK_NAMES),
        default=None,
        help="subset of benchmarks (default: all seven)",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="instruction budget per run (default: calibrated 6,000,000; "
        f"{QUICK_INSTRUCTIONS:,} for quick)",
    )
    parser.add_argument(
        "--hot-threshold",
        type=int,
        default=None,
        help="hotspot detection threshold (invocations)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="simulation seed"
    )
    parser.add_argument(
        "--kernel",
        choices=SIM_KERNELS,
        default=None,
        help="simulation kernel: 'fast' (batched/inlined hot loop, the "
        "default) or 'reference' (the readable interpreter); the two are "
        "bit-identical (tests/test_kernel_equivalence.py)",
    )
    ExecutionOptions.add_arguments(parser)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace JSON (chrome://tracing / Perfetto) of "
        "the tuning-event timeline ('run' command; forces a live, "
        "uncached simulation).  Works with any --jobs: pool workers "
        "capture their events and the engine merges them into one "
        "clock-aligned trace with per-worker tracks",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry event/metric summary after the run",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live per-cell progress heartbeat (done/total, "
        "cells in flight, ETA) to stderr",
    )
    parser.add_argument(
        "--record",
        nargs="?",
        const="auto",
        default=None,
        metavar="DIR",
        help="write a flight-recorder JSONL manifest of the run (batch "
        "config, per-cell outcomes, degradation notes); DIR may be a "
        "directory or a .jsonl path, default results/runs/",
    )
    parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="dump the engine's stats counters (simulations, memory/store "
        "hits, retries, timeouts) as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--inject",
        default=None,
        metavar="PLAN",
        help="fault-injection plan, e.g. "
        "'seed=42,worker_crash=0.2,cell_timeout=0.1' (see repro.faults."
        "FaultPlan; plans that perturb simulation results disable "
        "caching for the affected cells)",
    )
    parser.add_argument(
        "--on-error",
        choices=["raise", "skip", "partial"],
        default="raise",
        dest="on_error",
        help="batch failure policy: 'raise' aborts on the first cell "
        "that exhausts its retries (default); 'skip'/'partial' keep "
        "serving surviving cells ('partial' still fails when no cell "
        "succeeded)",
    )
    return parser


def make_config(args) -> ExperimentConfig:
    """The simulation flags as an ExperimentConfig; exits on bad values."""
    try:
        # Parsed arguments are answered in the command line's terms.
        check_at_least("--instructions", args.instructions, 1)
        check_at_least("--hot-threshold", args.hot_threshold, 1)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)
    config = ExperimentConfig()
    if args.instructions is not None:
        config.max_instructions = args.instructions
    if args.hot_threshold is not None:
        config.hot_threshold = args.hot_threshold
    if args.seed is not None:
        config.seed = args.seed
    if args.kernel is not None:
        config.sim_kernel = args.kernel
    return config


def make_fault_plan(args):
    """Parse ``--inject`` into a FaultPlan (or None); exits on bad specs."""
    if args.inject is None:
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.from_spec(args.inject)
    except ValueError as error:
        print(f"error: bad --inject plan: {error}", file=sys.stderr)
        raise SystemExit(2)


def make_options(args) -> ExecutionOptions:
    """The execution flags as ExecutionOptions; exits on bad values."""
    try:
        return ExecutionOptions.from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)


def make_progress_printer(args):
    """The ``--progress`` stderr heartbeat (or None when not asked)."""
    if not args.progress:
        return None

    def _print(progress) -> None:
        eta = (
            f", eta {progress.eta_s:.0f}s"
            if progress.eta_s is not None
            else ""
        )
        print(
            f"[{progress.done}/{progress.total}] "
            f"{progress.spec.benchmark_name}/{progress.spec.scheme} "
            f"({progress.source}, {progress.in_flight} in flight{eta})",
            file=sys.stderr,
        )

    return _print


def make_recorder(args):
    """Resolve ``--record`` into a FlightRecorder (or None)."""
    if args.record is None:
        return None
    from repro.obs import FlightRecorder

    target = "results/runs" if args.record == "auto" else args.record
    if target.endswith(".jsonl"):
        recorder = FlightRecorder(target)
    else:
        recorder = FlightRecorder.in_dir(target)
    print(f"(flight recorder: {recorder.path})", file=sys.stderr)
    return recorder


def dump_stats_json(args, engine, elapsed: float) -> None:
    """Satisfy ``--stats-json``: engine counters, machine-readable."""
    if args.stats_json is None:
        return
    payload = dataclasses.asdict(engine.stats)
    payload["elapsed_seconds"] = round(elapsed, 3)
    payload["jobs"] = engine.jobs
    payload["backend"] = engine.backend
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.stats_json == "-":
        print(text)
    else:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"(engine stats written to {args.stats_json})")


def run_command(args) -> int:
    """The ``run`` exhibit: one traced benchmark/scheme cell."""
    from repro.obs import Telemetry, write_chrome_trace
    from repro.sim.engine import BatchExecutionError, CellExecutionError
    from repro.sim.experiment import make_engine

    if args.bench is None:
        print(
            "error: 'run' needs a benchmark, e.g. "
            "`python -m repro run db --scheme hotspot`",
            file=sys.stderr,
        )
        return 2
    config = make_config(args)
    tracing = args.trace is not None or args.metrics
    telemetry = Telemetry() if tracing else None
    # A traced run must observe live tuning decisions, so both cache
    # layers are bypassed; --jobs applies either way —
    # pool workers capture their telemetry and the engine clock-aligns
    # it into this session (docs/INTERNALS.md §15).
    engine = make_engine(
        use_cache=not tracing,
        telemetry=telemetry,
        failure_policy=args.on_error,
        fault_plan=make_fault_plan(args),
        options=make_options(args),
        progress=make_progress_printer(args),
        recorder=make_recorder(args),
    )
    start = perf_counter()
    try:
        result = engine.run_one(RunSpec(args.bench, args.scheme, config))
    except (CellExecutionError, BatchExecutionError) as error:
        elapsed = perf_counter() - start
        print(f"error: {error}", file=sys.stderr)
        dump_stats_json(args, engine, elapsed)
        return 1
    elapsed = perf_counter() - start
    if result is None:
        print(
            f"error: cell {args.bench}/{args.scheme} failed "
            f"(failure policy {args.on_error!r}); see engine stats",
            file=sys.stderr,
        )
        dump_stats_json(args, engine, elapsed)
        return 1
    print(
        f"{result.benchmark}/{result.scheme}: "
        f"{result.instructions:,} insns, {result.cycles:,.0f} cycles, "
        f"IPC {result.ipc:.3f}"
    )
    print(
        f"L1D {result.l1d_energy_nj / 1e3:.1f} uJ "
        f"(miss rate {result.l1d_miss_rate:.2%}), "
        f"L2 {result.l2_energy_nj / 1e3:.1f} uJ "
        f"(miss rate {result.l2_miss_rate:.2%})"
    )
    print(
        f"hotspots: {result.n_hotspots} detected, "
        f"coverage {result.hotspot_coverage:.1%} "
        f"({elapsed:.1f}s)"
    )
    if telemetry is not None:
        if args.trace is not None:
            path = write_chrome_trace(telemetry, args.trace)
            log = telemetry.log
            dropped = (
                f", {log.dropped} dropped" if log.dropped else ""
            )
            print(
                f"trace written to {path} "
                f"({len(log)} events{dropped}; load in chrome://tracing "
                f"or https://ui.perfetto.dev)"
            )
        if args.metrics:
            print()
            print(exhibits.timeline(telemetry).rendered)
    dump_stats_json(args, engine, elapsed)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.exhibit == "run":
        return run_command(args)
    if args.exhibit in STATIC_EXHIBITS:
        print(STATIC_EXHIBITS[args.exhibit]().rendered)
        return 0

    from repro.sim.experiment import make_engine

    config = make_config(args)
    engine = make_engine(
        failure_policy=args.on_error,
        fault_plan=make_fault_plan(args),
        options=make_options(args),
        progress=make_progress_printer(args),
        recorder=make_recorder(args),
    )
    if args.exhibit == "quick":
        from repro.sim.engine import (
            BatchExecutionError,
            CellExecutionError,
        )
        from repro.sim.experiment import compare_schemes

        if args.instructions is None:
            config.max_instructions = QUICK_INSTRUCTIONS
        start = perf_counter()
        try:
            comparison = compare_schemes(
                (args.benchmarks or ["db"])[0], config, engine=engine
            )
        except (CellExecutionError, BatchExecutionError) as error:
            elapsed = perf_counter() - start
            print(f"error: {error}", file=sys.stderr)
            dump_stats_json(args, engine, elapsed)
            return 1
        for cache in ("L1D", "L2"):
            print(
                f"{cache} energy reduction: "
                f"BBV {comparison.energy_reduction('bbv', cache):.1%}, "
                f"hotspot "
                f"{comparison.energy_reduction('hotspot', cache):.1%}"
            )
        print(
            f"slowdown: BBV {comparison.slowdown('bbv'):.2%}, "
            f"hotspot {comparison.slowdown('hotspot'):.2%}"
        )
        elapsed = perf_counter() - start
        print(f"({elapsed:.1f}s)")
        dump_stats_json(args, engine, elapsed)
        return 0

    from repro.sim.engine import BatchExecutionError, CellExecutionError

    start = perf_counter()
    try:
        suite = run_suite(args.benchmarks, config, engine=engine)
    except (CellExecutionError, BatchExecutionError) as error:
        elapsed = perf_counter() - start
        print(f"error: {error}", file=sys.stderr)
        dump_stats_json(args, engine, elapsed)
        return 1
    elapsed = perf_counter() - start
    wanted = (
        ALL_EXHIBITS if args.exhibit == "all" else [args.exhibit]
    )
    for name in wanted:
        if name in STATIC_EXHIBITS:
            print(STATIC_EXHIBITS[name]().rendered)
        else:
            print(SUITE_EXHIBITS[name](suite).rendered)
        print()
    stats = engine.stats
    degraded = (
        f", {stats.failures} FAILED" if stats.failures else ""
    )
    print(
        f"(suite resolved in {elapsed:.0f}s: {stats.simulations} "
        f"simulated, {stats.memory_hits} memory hits, "
        f"{stats.store_hits} store hits, "
        f"backend={engine.backend}:{engine.jobs}{degraded})"
    )
    dump_stats_json(args, engine, elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
