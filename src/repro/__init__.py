"""repro — reproduction of "Effective Adaptive Computing Environment
Management via Dynamic Optimization" (Hu, Valluri, John — CGO 2005).

The package implements, in pure Python, the paper's DO-based adaptive
computing environment (ACE) management framework together with every
substrate it needs: a mini-ISA and interpreter, a Jikes-style DO system
(hotspot detection, JIT patching), a trace-driven microarchitecture model
(resizable caches, branch prediction, analytic timing), a Wattch-style
energy model, the BBV temporal baseline, and synthetic SPECjvm98 stand-in
workloads.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Quickstart::

    from repro import ACEFramework, build_benchmark

    built = build_benchmark("db")
    report = ACEFramework().run(
        built.program, max_instructions=500_000,
        thread_entries=built.thread_entries,
    )
    print(report.summary())
"""

__version__ = "1.0.0"

#: Public name -> defining module.  Every name is imported on first
#: access (PEP 562), so ``import repro`` — and with it every
#: ``import repro.<submodule>`` — loads nothing else.
_LAZY = {
    "ACEFramework": "repro.core.framework",
    "ACEReport": "repro.core.framework",
    "BBVACEPolicy": "repro.phases.policy",
    "BBVConfig": "repro.sim.config",
    "BENCHMARK_NAMES": "repro.workloads.names",
    "Engine": "repro.sim.engine",
    "ExperimentConfig": "repro.sim.config",
    "FootprintPredictor": "repro.core.prediction",
    "HotspotACEPolicy": "repro.core.policy",
    "MachineConfig": "repro.sim.config",
    "MethodBuilder": "repro.isa.builder",
    "Program": "repro.isa.program",
    "ProgramBuilder": "repro.isa.builder",
    "ResultStore": "repro.sim.store",
    "RunSpec": "repro.sim.results",
    "ScaledParameters": "repro.sim.config",
    "SizeClassifier": "repro.core.cu_assignment",
    "TuningConfig": "repro.sim.config",
    "VMConfig": "repro.vm.vm",
    "VirtualMachine": "repro.vm.vm",
    "benchmark_spec": "repro.workloads.specjvm",
    "build_benchmark": "repro.workloads.specjvm",
    "build_machine": "repro.sim.config",
    "build_suite": "repro.workloads.specjvm",
    "run_suite": "repro.sim.experiment",
}

__all__ = sorted(_LAZY) + ["__version__"]


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
