"""Warm-starting: persist the DO database and tuning results across runs.

Production DO systems persist their translation caches; applying the same
idea to the paper's framework removes both remaining latencies on a rerun
of the same workload: hotspots are recognised at their *first* invocation
(zero identification latency) and adopt last run's configurations without
tuning (zero tuning latency) — pending a quick A/B verification by the
sampling code, so stale entries are walked back instead of trusted.

    python examples/warm_start.py
"""

from repro.core.policy import HotspotACEPolicy
from repro.sim.config import ExperimentConfig, build_machine
from repro.sim.driver import RunSpec, execute
from repro.vm.hotspot import DODatabase
from repro.vm.vm import VMConfig, VirtualMachine
from repro.workloads.specjvm import build_benchmark


def cold_run(config):
    """First execution: detect, tune, and harvest the DO database."""
    built = build_benchmark("db")
    policy = HotspotACEPolicy(tuning=config.tuning)
    machine = build_machine(config.machine)
    vm = VirtualMachine(
        built.program, machine, policy=policy,
        config=VMConfig(hot_threshold=config.hot_threshold),
        thread_entries=built.thread_entries,
    )
    vm.run(config.max_instructions)
    return vm, policy


def main() -> None:
    config = ExperimentConfig(max_instructions=1_500_000)

    print("run 1 (cold): detecting and tuning ...")
    vm, policy = cold_run(config)
    database_blob = vm.database.to_dict()
    chosen = policy.chosen_configs()
    stats = policy.finalize()
    cold_latency = sum(
        p.pre_hot_instructions for p in vm.database.profiles()
        if p.is_hot
    ) / vm.machine.instructions
    print(f"  hotspots detected : {len(vm.database.hotspots)}")
    print(f"  tuning trials     : {sum(stats.tunings.values())}")
    print(f"  identification    : {cold_latency:.2%} of execution")
    print(f"  persisted configs : {chosen}")

    print()
    print("run 2 (warm): preloaded database + inherited configurations ...")
    warm_policy = HotspotACEPolicy(
        tuning=config.tuning, warm_start=chosen
    )
    result = execute(RunSpec(
        build_benchmark("db"), "hotspot", config,
        policy=warm_policy,
        preload_database=DODatabase.from_dict(database_blob),
    ))
    warm_stats = warm_policy.finalize()
    print(f"  warm-started      : {warm_policy.warm_started} hotspots")
    print(f"  tuning trials     : {sum(warm_stats.tunings.values())}")
    print(f"  identification    : "
          f"{result.identification_latency:.2%} of execution")
    print(f"  L1D coverage      : {warm_stats.coverage['L1D']:.0%} "
          "(configured from the first invocation)")


if __name__ == "__main__":
    main()
