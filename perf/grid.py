"""The suite-serial workload program: the 21-cell grid on the serial engine.

``run_suite`` with its defaults (``make_engine()``, one job) against the
store given, which is how benchmarks/conftest.py's ``suite`` fixture and
benchmarks/bench_robustness.py resolve the grid.  The budget defaults to
the ablation benches' ``ABLATION_BUDGET``::

    PYTHONPATH=src python perf/grid.py --seed 12345 --store-dir DIR

It prints the same per-cell heartbeat to stderr as the CLI's
``--progress``; the benchmark times the first cell from it.
"""

import argparse
import sys

from repro.sim.config import ExperimentConfig
from repro.sim.experiment import run_suite, set_default_store
from repro.sim.store import ResultStore

#: ``benchmarks/conftest.py``'s budget for ablation runs.
ABLATION_BUDGET = 3_000_000


def _print_progress(progress):
    print(
        f"[{progress.done}/{progress.total}] "
        f"{progress.spec.benchmark_name}/{progress.spec.scheme} "
        f"({progress.source}, {progress.in_flight} in flight)",
        file=sys.stderr,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--instructions", type=int, default=ABLATION_BUDGET)
    parser.add_argument(
        "--kernel", choices=["fast", "reference"], default="fast"
    )
    parser.add_argument("--store-dir", required=True)
    args = parser.parse_args(argv)
    set_default_store(ResultStore(args.store_dir))
    config = ExperimentConfig(
        seed=args.seed,
        max_instructions=args.instructions,
        sim_kernel=args.kernel,
    )
    suite = run_suite(config=config, progress=_print_progress)
    print(f"(grid resolved {3 * len(suite.comparisons)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
