"""Scaling the framework to four configurable units.

Enables the issue-queue and reorder-buffer CUs the paper reports as work
in progress (§4.1) alongside the two caches, and shows the scalability
story of §5.2.1: the combinatorial space grows to 4^4 = 256, so the BBV
temporal approach stops completing its tuning, while CU decoupling keeps
each hotspot's list at its own CU subset.

    python examples/multi_cu.py
"""

from repro.sim.config import ExperimentConfig, MachineConfig
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark


def main() -> None:
    config = ExperimentConfig(
        machine=MachineConfig(enable_pipeline_cus=True),
        max_instructions=2_000_000,
    )
    print("four CUs: L1D, L2, IQ (issue queue), ROB (reorder buffer)")
    print("simulating 'jess' under all three schemes ...\n")

    runs = {
        scheme: execute(RunSpec(build_benchmark("jess"), scheme, config))
        for scheme in ("baseline", "bbv", "hotspot")
    }

    hot = runs["hotspot"].hotspot_stats
    bbv = runs["bbv"].bbv_stats

    print("hotspot scheme (CU decoupling):")
    print(f"  hotspots by CU class : {hot.hotspots_by_kind}")
    print(f"  tuned hotspots       : {hot.tuned_hotspots}/"
          f"{hot.managed_hotspots}")
    trials = sum(hot.tunings.values())
    print(f"  tuning trials        : {trials} "
          f"(~{trials / max(1, hot.managed_hotspots):.1f} per hotspot; "
          "a combinatorial tuner would need up to 256)")
    print(f"  reconfigurations     : {hot.reconfigs}")

    print()
    print("BBV scheme (combinatorial tuning over 256 combinations):")
    print(f"  phases               : {bbv.n_phases}")
    print(f"  tuned phases         : {bbv.tuned_phases} "
          "(the 256-entry list rarely completes)")
    print(f"  trials spent         : {sum(bbv.tunings.values())}")

    base = runs["baseline"]
    print()
    print("energy per instruction vs. baseline:")
    for label, attr in (("L1D", "l1d_energy_nj"), ("L2", "l2_energy_nj")):
        base_epi = getattr(base, attr) / base.instructions
        for scheme in ("bbv", "hotspot"):
            run = runs[scheme]
            epi = getattr(run, attr) / run.instructions
            print(f"  {label} {scheme:8s}: {1 - epi / base_epi:+.1%}")


if __name__ == "__main__":
    main()
