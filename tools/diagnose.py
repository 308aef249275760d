"""Diagnostic dump of per-hotspot and per-phase tuning decisions.

Usage: python tools/diagnose.py <benchmark> [max_instructions]
"""

import sys

from repro.report.analysis import (
    render_hotspot_report,
    render_phase_report,
)
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute, make_policy
from repro.workloads.specjvm import build_benchmark


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "db"
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 6_000_000
    config = ExperimentConfig(max_instructions=budget)
    built = build_benchmark(bench)

    print("=== workload ===")
    for spec in built.library.specs:
        print(
            f"  {spec.name:10s} {spec.kind:6s} size~{spec.target_size:6d} "
            f"span={spec.span:6d} trips={spec.trips_mean} "
            f"callees={spec.callees}"
        )

    print("\n=== hotspot scheme ===")
    policy = make_policy("hotspot", config)
    result = execute(RunSpec(built, "hotspot", config, policy=policy))
    print(
        f"ipc={result.ipc:.3f} l1dmiss={result.l1d_miss_rate:.4f} "
        f"l2miss={result.l2_miss_rate:.4f} "
        f"denied={result.denied_reconfigurations}"
    )
    print(render_hotspot_report(policy, result))

    print("\n=== bbv scheme ===")
    bbv_policy = make_policy("bbv", config)
    bbv_result = execute(RunSpec(built, "bbv", config, policy=bbv_policy))
    print(
        f"ipc={bbv_result.ipc:.3f} l1dmiss={bbv_result.l1d_miss_rate:.4f} "
        f"l2miss={bbv_result.l2_miss_rate:.4f} "
        f"cu_order={bbv_policy.cu_names}"
    )
    print(render_phase_report(bbv_policy))


if __name__ == "__main__":
    main()
