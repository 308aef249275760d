"""Worker-side chunk execution.

This is the code that runs on the far side of a pool boundary, in a
``ProcessPoolExecutor`` worker (:class:`~repro.sim.pools.local
.LocalProcessPool`).  The engine's serial path imports
:func:`run_with_alarm` and :func:`inject_cell_faults` from here too.

Module globals below are per worker process (each worker gets its own
module state, forked or spawned); the parent never touches them.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import FaultPlan, InjectedFault
from repro.obs.events import TIMEOUT_DISABLED
from repro.obs.remote import SNAPSHOT_VERSION, ChunkCapture, worker_origin
from repro.sim.driver import RunResult, RunSpec, execute, execute_group
from repro.sim.pools.base import CellTimeout, ChunkPayload

#: Seconds between repeats of a cell's SIGALRM once its budget is spent
#: (see :func:`run_with_alarm`).
ALARM_REPEAT_S = 0.05


def run_with_alarm(
    spec: RunSpec,
    timeout: Optional[float],
    telemetry=None,
    fault_plan: Optional[FaultPlan] = None,
    on_unarmed: Optional[Callable[[], None]] = None,
) -> RunResult:
    """Execute a cell, bounded by SIGALRM when a timeout is requested.

    SIGALRM interrupts pure-Python simulation loops reliably on POSIX; it
    can only be armed from a main thread (worker processes always
    qualify).  When a timeout was requested but cannot be armed, the cell
    runs unbounded and ``on_unarmed`` is invoked so the caller can make
    the disabled budget visible instead of silent.

    Once the budget is spent the alarm repeats every
    :data:`ALARM_REPEAT_S` until the cell ends: Python swallows an
    exception raised inside a ``gc`` callback or a ``__del__`` as
    unraisable, so a single alarm landing there would let the cell run
    unbounded.  The timer is disarmed twice, because a repeat may land
    in the first disarm.
    """
    return _with_alarm(
        lambda: execute(spec, telemetry=telemetry, fault_plan=fault_plan),
        f"cell ({spec.benchmark_name!r}, {spec.scheme!r})",
        timeout,
        on_unarmed,
    )


def run_group(
    cells: List[Tuple[RunSpec, int]],
    timeout: Optional[float],
    fault_plan: Optional[FaultPlan] = None,
    on_unarmed: Optional[Callable[[], None]] = None,
) -> List[RunResult]:
    """Execute a lockstep group: ``cells`` are ``(spec, attempt)`` pairs
    that :func:`repro.sim.driver.execute_group` runs as lanes of one VM.

    Each cell's injected faults fire first, as they would before a solo
    run; the group's budget is the per-cell ``timeout`` times its
    cells.  Any exception means the group failed as a whole: the caller
    re-runs its cells solo.
    """
    for spec, attempt in cells:
        inject_cell_faults(fault_plan, spec, attempt)
    specs = [spec for spec, _ in cells]
    return _with_alarm(
        lambda: execute_group(specs, fault_plan=fault_plan),
        f"lockstep group {group_name(specs)!r}",
        None if timeout is None else timeout * len(specs),
        on_unarmed,
    )


def group_name(specs) -> str:
    """How store meta and errors name a lockstep group:
    ``benchmark:scheme,scheme,...``."""
    return (
        f"{specs[0].benchmark_name}:"
        + ",".join(spec.scheme for spec in specs)
    )


def _with_alarm(run, label, timeout, on_unarmed):
    """``run()``, bounded by SIGALRM (see :func:`run_with_alarm`)."""
    if timeout is None or timeout <= 0:
        return run()
    if threading.current_thread() is not threading.main_thread():
        if on_unarmed is not None:
            on_unarmed()
        return run()

    def _on_alarm(signum, frame):
        raise CellTimeout(f"{label} exceeded {timeout:.1f}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout, ALARM_REPEAT_S)
        try:
            return run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def inject_cell_faults(
    plan: Optional[FaultPlan], spec: RunSpec, attempt: int
) -> None:
    """Raise the per-attempt engine faults a plan schedules for a cell."""
    if plan is None:
        return
    key = (spec.benchmark_name, spec.scheme, attempt)
    if plan.decide("cell_exception", key):
        raise InjectedFault(
            f"injected exception in cell "
            f"({spec.benchmark_name!r}, {spec.scheme!r}), "
            f"attempt {attempt}"
        )
    if plan.decide("cell_timeout", key):
        raise CellTimeout(
            f"injected timeout in cell "
            f"({spec.benchmark_name!r}, {spec.scheme!r}), "
            f"attempt {attempt}"
        )


#: Built benchmarks memoised by name.  Safe to reuse across cells: a run
#: never mutates a ``BuiltBenchmark`` — the kernels decode programs into
#: per-VM tables and all run state lives in the VM/machine objects.
_WORKER_BENCHES: Dict[str, object] = {}

#: Warm-start statistics recorded by :func:`pool_initializer`, shipped
#: to the parent with the first chunk this worker completes, then cleared.
_WORKER_WARMUP: Optional[Dict[str, object]] = None


def worker_built(benchmark):
    """Worker-side memoised ``build_benchmark`` (str names only)."""
    if not isinstance(benchmark, str):
        return benchmark
    built = _WORKER_BENCHES.get(benchmark)
    if built is None:
        from repro.workloads.specjvm import build_benchmark

        built = _WORKER_BENCHES[benchmark] = build_benchmark(benchmark)
    return built


def pool_initializer(benchmarks: Tuple[str, ...]) -> None:
    """Warm one worker before it serves cells.

    Pre-builds the batch's benchmarks, so the first real cell starts
    simulating without paying program generation.  Nothing is decoded
    here: each method's runner compiles on its first execution in this
    worker, and only for methods that run.  Best-effort by design: a
    failure here must not poison the pool (the cell itself will rebuild
    and surface the real error through the retry machinery).
    """
    global _WORKER_WARMUP
    started = time.perf_counter()
    stats: Dict[str, object] = {"benchmarks": 0, "errors": 0}
    for name in benchmarks:
        try:
            worker_built(name)
            stats["benchmarks"] += 1
        except Exception:
            stats["errors"] += 1
    stats["warm_s"] = round(time.perf_counter() - started, 6)
    _WORKER_WARMUP = stats


def picklable(error: BaseException) -> BaseException:
    """The error itself if it survives pickling, else a repr stand-in.

    Chunk outcomes travel back to the parent in one pickled payload; one
    unpicklable exception must degrade to a readable substitute instead
    of taking the whole chunk's results down with it.  Either way the
    formatted traceback rides along as ``remote_traceback`` — pickling
    strips ``__traceback__`` (frames hold whole stacks alive), and a
    cross-backend failure with no traceback is undebuggable.
    """
    tb = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    try:
        # Set before the round-trip test: BaseException pickling carries
        # ``__dict__``, so the attribute must survive it too.
        error.remote_traceback = tb
    except Exception:
        pass  # __slots__ exceptions: the stand-in still carries it
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        stand_in = RuntimeError(repr(error))
        stand_in.remote_traceback = tb
        return stand_in


def run_chunk(payload: ChunkPayload) -> tuple:
    """Top-level chunk entry (must be importable for pickling).

    ``payload`` is ``(cells, timeout, plan)`` — or, when the parent's
    telemetry session is live, ``(cells, timeout, plan, capture)`` with
    ``capture`` a plain-dict spec (``{"max_events": N}``), or, when the
    chunk holds lockstep groups, ``(cells, timeout, plan, None,
    group_sizes)`` — where ``cells`` is a tuple of ``(index, spec,
    attempt)`` and ``group_sizes`` splits its head into consecutive
    groups (cells past them run solo); the timeout and the fault plan
    are pickled once per chunk instead of once per cell.
    Returns ``(warmup, outcomes, chunk_info)``; each outcome is
    ``(index, "ok", result)`` or ``(index, "error", error)``.
    ``chunk_info`` always carries at least the executor's identity
    (``origin`` = ``host#pid``), per-cell measured seconds
    (``cell_times``, a tuple of ``(index, seconds)``: a group's seconds
    go to its first cell, 0.0 to the others), the lockstep groups
    (``groups``, a tuple of ``(index, group name)``) and the groups
    that failed (``lockstep_failures``, ``(group name, error repr)``
    pairs, for the flight recorder), the chunk's total
    service seconds (``service_s``), and the unarmed-timeout count; the
    engine writes each cell's seconds, group and executor into its store
    entry's ``meta`` block.  With a live capture it is the full
    clock-stamped telemetry snapshot, same extra keys included.
    Per-cell failures are *returned*, not raised, so one bad cell
    cannot discard its chunk-mates' finished work; a group that fails
    re-runs its cells solo.  A worker-crash injection still hard-exits
    the process, so the parent observes a broken pool exactly like a
    segfaulting or OOM-killed worker.

    Telemetry never influences execution: cells run identically with and
    without a capture spec (the bit-identity grid in
    tests/test_remote_obs.py holds the contract).
    """
    global _WORKER_WARMUP
    cells, timeout, plan = payload[:3]
    capture_spec = payload[3] if len(payload) >= 4 else None
    sizes = payload[4] if len(payload) >= 5 else ()
    capture = ChunkCapture(capture_spec) if capture_spec else None
    unarmed = 0
    outcomes: List[Tuple[int, str, object]] = []
    cell_times: List[Tuple[int, float]] = []
    groups: List[Tuple[int, str]] = []
    failures: List[Tuple[str, str]] = []
    chunk_started = time.perf_counter()

    def crash_point(spec, attempt):
        if plan is not None and plan.decide(
            "worker_crash", (spec.benchmark_name, spec.scheme, attempt)
        ):
            import os

            os._exit(17)

    def run_solo(index, spec, attempt):
        crash_point(spec, attempt)
        cell_telemetry = capture.begin_cell() if capture else None

        def _on_unarmed(telemetry=cell_telemetry):
            nonlocal unarmed
            unarmed += 1
            if telemetry is not None:
                telemetry.emit_wall(
                    TIMEOUT_DISABLED,
                    reason=(
                        "SIGALRM needs the worker's main thread; "
                        "cell ran unbounded"
                    ),
                )

        status = "ok"
        cell_started = time.perf_counter()
        try:
            inject_cell_faults(plan, spec, attempt)
            spec.benchmark = worker_built(spec.benchmark)
            outcomes.append(
                (
                    index,
                    "ok",
                    run_with_alarm(
                        spec,
                        timeout,
                        cell_telemetry,
                        fault_plan=plan,
                        on_unarmed=_on_unarmed,
                    ),
                )
            )
        except Exception as error:  # noqa: BLE001 — parent retries
            status = "error"
            outcomes.append((index, "error", picklable(error)))
        finally:
            cell_times.append(
                (index, time.perf_counter() - cell_started)
            )
            if capture is not None:
                capture.end_cell(index, spec, status)

    def run_lockstep(group) -> bool:
        for _, spec, attempt in group:
            crash_point(spec, attempt)

        def _on_unarmed():
            nonlocal unarmed
            unarmed += 1

        started = time.perf_counter()
        try:
            for _, spec, _ in group:
                spec.benchmark = worker_built(spec.benchmark)
            results = run_group(
                [(spec, attempt) for _, spec, attempt in group],
                timeout,
                plan,
                _on_unarmed,
            )
        except Exception as error:  # noqa: BLE001 — its cells re-run solo
            failures.append(
                (group_name([spec for _, spec, _ in group]), repr(error))
            )
            return False
        elapsed = time.perf_counter() - started
        name = group_name([spec for _, spec, _ in group])
        for position, ((index, _, _), result) in enumerate(
            zip(group, results)
        ):
            outcomes.append((index, "ok", result))
            cell_times.append((index, elapsed if position == 0 else 0.0))
            groups.append((index, name))
        return True

    start = 0
    for size in sizes:
        group = cells[start:start + size]
        start += size
        if size > 1 and capture is None and run_lockstep(group):
            continue
        for cell in group:
            run_solo(*cell)
    for cell in cells[start:]:
        run_solo(*cell)
    warmup, _WORKER_WARMUP = _WORKER_WARMUP, None
    if capture is not None:
        chunk_info = capture.finish(unarmed)
    else:
        chunk_info = {
            "v": SNAPSHOT_VERSION,
            "unarmed_timeouts": unarmed,
            "cells": None,
        }
    # Executor identity, measured per-cell seconds and lockstep groups
    # ride every reply (store meta and the perf harness read them).
    chunk_info["origin"] = worker_origin()
    chunk_info["cell_times"] = tuple(cell_times)
    chunk_info["groups"] = tuple(groups)
    chunk_info["lockstep_failures"] = tuple(failures)
    chunk_info["service_s"] = time.perf_counter() - chunk_started
    return warmup, outcomes, chunk_info
