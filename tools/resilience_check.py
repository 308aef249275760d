#!/usr/bin/env python
"""Crash-safety acceptance check: SIGKILL a campaign, re-run it.

The end-to-end gate behind write-through result storage
(docs/INTERNALS.md §16), run by CI's ``chaos`` job::

    PYTHONPATH=src python tools/resilience_check.py --workdir ci-resilience

1. launch ``python -m repro table4 --store-dir ...`` as a subprocess,
   without ``--record``;
2. poll the store until at least ``--min-done`` cells have committed
   entries, then SIGKILL the process — a real crash, no cleanup
   handlers;
3. re-run the same command with ``--stats-json``;
4. assert the re-run (a) exits 0 and (b) re-simulated **none** of the
   finished cells — each came back as a store hit — so it simulated
   at most the cells the killed run had not finished.

A finished cell is a committed ``*.json`` entry in a store shard; an
atomic write in progress is a ``*.tmp`` file, which the count skips.
Exit status 0 = gate passed.  The re-run's stats are left in the
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
