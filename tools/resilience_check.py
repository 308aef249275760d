#!/usr/bin/env python
"""Crash-safety acceptance check: crash a campaign, re-run it.

The end-to-end gate behind write-through result storage and re-run
recovery (docs/INTERNALS.md §11 and §16), run by CI's ``chaos`` job::

    PYTHONPATH=src python tools/resilience_check.py --workdir ci-resilience

The kill gate:

1. launch ``python -m repro table4 --store-dir ...`` as a subprocess,
   without ``--record``;
2. poll the store until at least ``--min-done`` cells have committed
   entries, then SIGKILL the process — a real crash, no cleanup
   handlers;
3. re-run the same command with ``--stats-json``;
4. assert the re-run (a) exits 0 and (b) re-simulated **none** of the
   finished cells — each came back as a store hit — so it simulated
   at most the cells the killed run had not finished.

The crash-plan gate:

1. run ``table4 --jobs 2 --inject <CRASH_PLAN> --on-error skip
   --stats-json ...`` into a second store: a pool worker dies, and the
   cells of its round settle as crashed (the run exits 1 only when no
   benchmark survived);
2. re-run the same command without ``--inject``;
3. assert the re-run exits 0, simulates exactly the cells the first run
   failed, and serves every other cell from the store.

A finished cell is a committed ``*.json`` entry in a store shard; an
atomic write in progress is a ``*.tmp`` file, which the count skips.
Exit status 0 = both gates passed.  The re-runs' stats are left in the
workdir for upload as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: A campaign long enough that the kill lands mid-batch on CI runners.
BENCHMARKS = ["db", "jess", "javac", "mtrt"]
SCHEMES = 3  # run_suite's baseline/bbv/hotspot grid
#: Draws a worker crash for one javac cell at this seed, so the pool
#: dies mid-campaign whatever the timing.
CRASH_PLAN = "seed=4,worker_crash=0.1"


def campaign_command(args, store_dir: Path) -> list:
    return [
        sys.executable, "-m", "repro", "table4",
        "--benchmarks", *BENCHMARKS,
        "--instructions", str(args.instructions),
        "--store-dir", str(store_dir),
    ]


def count_done_cells(store_dir: Path) -> int:
    """Committed store entries: one per finished cell."""
    return len(list(store_dir.glob("*/*.json")))


def run_with_stats(command, stats_path: Path, env) -> tuple:
    """Run ``command`` with ``--stats-json``; (exit code, stats or None)."""
    code = subprocess.run(
        command + ["--stats-json", str(stats_path)], env=env
    ).returncode
    if not stats_path.exists():
        return code, None
    return code, json.loads(stats_path.read_text())


def crash_plan_gate(args, workdir: Path, env) -> list:
    """Crash a pool worker by fault plan, re-run without it; returns
    the gate's failures."""
    total = len(BENCHMARKS) * SCHEMES
    command = campaign_command(args, workdir / "crash-store") + [
        "--jobs", "2", "--on-error", "skip",
    ]
    crashed = command + ["--inject", CRASH_PLAN]
    print(f"[resilience] crashing: {' '.join(crashed)}", flush=True)
    code, first = run_with_stats(crashed, workdir / "crash-stats.json", env)
    if code not in (0, 1) or first is None:
        return [f"crash-plan run failed with exit {code}"]
    if first["worker_crashes"] < 1 or first["failures"] < 1:
        return [
            f"{CRASH_PLAN} crashed {first['worker_crashes']} pools and "
            f"failed {first['failures']} cells; it must crash one"
        ]
    print(f"[resilience] re-running: {' '.join(command)}", flush=True)
    code, stats = run_with_stats(
        command, workdir / "crash-rerun-stats.json", env
    )
    if code != 0:
        return [f"crash-plan re-run failed with exit {code}"]
    failures = []
    if stats["simulations"] != first["failures"]:
        failures.append(
            f"{stats['simulations']} simulations on the re-run for "
            f"{first['failures']} failed cells"
        )
    if stats["store_hits"] != total - first["failures"]:
        failures.append(
            f"{stats['store_hits']} store hits on the re-run for "
            f"{total - first['failures']} finished cells"
        )
    if not failures:
        print(
            f"[resilience] OK: {first['failures']} crashed cells "
            f"simulated on the re-run, {stats['store_hits']} served "
            "from the store"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir", default="ci-resilience", metavar="DIR",
        help="scratch directory for the store and the re-run's stats "
        "(kept for artifact upload)",
    )
    parser.add_argument(
        "--min-done", type=int, default=2, metavar="N",
        help="cells that must commit before the SIGKILL (default: 2)",
    )
    parser.add_argument(
        "--instructions", type=int, default=400_000, metavar="N",
        help="per-cell instruction budget (default: 400000 — slow "
        "enough to kill mid-campaign, fast enough for CI)",
    )
    parser.add_argument(
        "--kill-timeout", type=float, default=300.0, metavar="S",
        help="give up if --min-done cells have not committed in S "
        "seconds (default: 300)",
    )
    args = parser.parse_args()

    workdir = Path(args.workdir)
    store_dir = workdir / "store"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": SRC_DIR}

    command = campaign_command(args, store_dir)
    print(f"[resilience] launching: {' '.join(command)}", flush=True)
    victim = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )

    deadline = time.monotonic() + args.kill_timeout
    done_before = 0
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            raise SystemExit(
                "campaign finished (or died) before the kill landed — "
                "raise --instructions so the check can interrupt it"
            )
        done_before = count_done_cells(store_dir)
        if done_before >= args.min_done:
            break
        time.sleep(0.2)
    else:
        victim.kill()
        victim.wait(timeout=60)
        raise SystemExit(
            f"only {done_before} cells committed within "
            f"{args.kill_timeout:.0f}s; cannot exercise the kill"
        )

    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=60)
    # Recount after death: cells may have committed between the poll
    # and the kill.  This is the re-run's baseline.
    done_before = count_done_cells(store_dir)
    print(f"[resilience] SIGKILL after {done_before} done cells", flush=True)

    stats_path = workdir / "rerun-stats.json"
    rerun_command = command + ["--stats-json", str(stats_path)]
    print(f"[resilience] re-running: {' '.join(rerun_command)}", flush=True)
    rerun = subprocess.run(rerun_command, env=env)
    if rerun.returncode != 0:
        raise SystemExit(f"re-run failed with exit {rerun.returncode}")

    stats = json.loads(stats_path.read_text())
    total = len(BENCHMARKS) * SCHEMES
    failures = []
    if stats["store_hits"] < done_before:
        failures.append(
            f"only {stats['store_hits']} store hits for {done_before} "
            "done cells — a done cell re-simulated"
        )
    if stats["simulations"] > total - done_before:
        failures.append(
            f"{stats['simulations']} simulations for "
            f"{total - done_before} unfinished cells"
        )
    if failures:
        for failure in failures:
            print(f"[resilience] FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"[resilience] OK: {done_before} done cells served from the "
        f"store, {stats['simulations']} simulated on the re-run"
    )
    failures = crash_plan_gate(args, workdir, env)
    for failure in failures:
        print(f"[resilience] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
