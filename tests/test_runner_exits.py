"""Every exit of a fast-kernel method runner, against the reference.

A runner (``repro.vm.blockjit``) leaves its loop at a call, a return,
the instruction budget, a GC or BBV-interval gate, the end of a quantum,
or a per-block hook, and writes its running totals back there.  Each
test below steers one kind of exit onto a chosen point and diffs the
fast kernel against the reference (``tests/equivalence.py``: the full
``RunResult`` and the simulated timeline).  A test then runs program
shapes the stand-in benchmarks lack — every decider kind, behaviours
without an inlined body, loops on a fall-through edge — through both
kernels.  The last group puts each gate inside a leaf call the runner
inlined and sends calls down each fallback to ``_invoke``.  Budgets are
small, so the whole module stays in tier-1.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.policy import HotspotACEPolicy
from repro.isa.builder import ProgramBuilder
from repro.isa.program import (
    AlternatingDecider,
    CondBranch,
    MemoryBehavior,
    PeriodicDecider,
    PersistentAlternatingDecider,
    RandomDecider,
    Return,
)
from repro.phases.policy import BBVACEPolicy
from repro.sim import driver
from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.sim.driver import RunSpec, execute
from repro.vm.fastvm import FastVirtualMachine
from repro.vm.hotspot import DODatabase
from repro.vm.vm import AdaptationHooks, VMConfig, VirtualMachine
from repro.workloads.patterns import (
    MixedBehavior,
    StackBehavior,
    StridedBehavior,
    WanderingWindowBehavior,
    WorkingSetBehavior,
)
from repro.workloads.specjvm import build_benchmark
from repro.workloads.synthetic import random_program
from tests.equivalence import (
    assert_cell_equivalent,
    assert_equivalent,
    run_cell,
)

SCHEMES = ("baseline", "hotspot", "bbv")


class _BlockEnds(AdaptationHooks):
    """Records, per block, the instruction count after its body."""

    name = "block-ends"

    def __init__(self):
        self.ends = []

    def on_block(self, event, machine):
        self.ends.append((machine.instructions, event))


@functools.lru_cache(maxsize=None)
def exit_budgets(bench: str, start: int = 20_000) -> dict:
    """Budgets whose last body is a call-free loop block that branches
    on inside its loop, a block with calls, and a returning block.

    The block sequence does not depend on the scheme (no policy draws
    from a thread's random stream), so one reference run of a recording
    policy places the budget for all three.
    """
    program = build_benchmark(bench).program
    recorder = _BlockEnds()
    execute(
        RunSpec(
            bench,
            "baseline",
            ExperimentConfig(max_instructions=start + 40_000),
            policy=recorder,
        )
    )
    picks = {}
    for ends, event in recorder.ends:
        if ends < start:
            continue
        block = program.methods[event.method].blocks[event.bid]
        term = block.terminator
        if block.calls:
            picks.setdefault("call", ends)
        elif isinstance(term, Return):
            picks.setdefault("return", ends)
        elif isinstance(term, CondBranch) and event.taken:
            picks.setdefault("loop", ends)
    assert set(picks) == {"call", "return", "loop"}, picks
    return picks


@pytest.mark.parametrize("bench", ["jess", "javac", "mtrt"])
@pytest.mark.parametrize("where", ["loop", "call", "return"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_budget_exit(bench, where, scheme):
    budget = exit_budgets(bench)[where]
    result = assert_cell_equivalent(bench, scheme, budget)
    # The budget cut right after the chosen body.
    assert result.instructions == budget


@pytest.mark.parametrize("quantum", [1, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tiny_quantum(monkeypatch, quantum, scheme):
    # Quanta of 1 and 3 micro-steps end on bodies, call launches and
    # terminators alike, and switch mtrt's two threads constantly.
    monkeypatch.setattr(
        driver, "VMConfig", functools.partial(VMConfig, quantum_blocks=quantum)
    )
    assert_cell_equivalent("mtrt", scheme, 40_001)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_gc_gate(monkeypatch, scheme):
    # A prime GC period makes javac's collector fire mid-segment,
    # between a body and its terminator, several times per cell.
    def vm_config(**kwargs):
        if kwargs.get("gc_method"):
            kwargs["gc_period_instructions"] = 9_973
        return VMConfig(**kwargs)

    monkeypatch.setattr(driver, "VMConfig", vm_config)
    result = assert_cell_equivalent("javac", scheme, 60_001)
    assert result.gc_invocations >= 5


def _pair(bench: str, budget: int, make_policy):
    """Reference and fast results of one cell run under fresh policies."""
    runs = []
    for kernel in ("reference", "fast"):
        policy = make_policy()
        result = execute(
            RunSpec(
                bench,
                "baseline",
                ExperimentConfig(max_instructions=budget, sim_kernel=kernel),
                policy=policy,
            )
        )
        runs.append((result, policy))
    return runs


@pytest.mark.parametrize("bench", ["jess", "mtrt"])
def test_bbv_boundary_mid_segment(bench):
    # A prime interval puts boundaries at arbitrary instruction counts:
    # inside self-loops, right after calls, inside both threads' runs.
    (ref, ref_policy), (fast, fast_policy) = _pair(
        bench, 90_001, lambda: BBVACEPolicy(sampling_interval=7_919)
    )
    assert_equivalent(f"{bench}/bbv@7919", ref, fast)
    assert ref_policy.classifier.classifications >= 10
    assert (
        ref_policy._splitter.instructions_in_current
        == fast_policy._splitter.instructions_in_current
    )


class _AddressDigest(HotspotACEPolicy):
    """A class-level hook that reads the address lists."""

    name = "address-digest"
    on_block_reads_addresses = True

    def __init__(self):
        super().__init__()
        self.digest = 0

    def on_block(self, event, machine):
        super().on_block(event, machine)
        self.digest = (
            self.digest * 31
            + sum(event.loads)
            + 7 * sum(event.stores)
            + event.taken
        ) % (1 << 61)


def test_address_reading_policy_gets_the_address_lists():
    (ref, ref_policy), (fast, fast_policy) = _pair(
        "jess", 60_001, _AddressDigest
    )
    assert_equivalent("jess/address-digest", ref, fast)
    assert fast_policy.digest == ref_policy.digest != 0


def test_instance_override_gets_a_per_block_hook():
    def make_policy():
        policy = HotspotACEPolicy()
        seen = []
        policy.on_block = lambda event, machine: (
            seen.append(len(event.loads)),
            HotspotACEPolicy.on_block(policy, event, machine),
        )
        policy.seen = seen
        return policy

    (ref, ref_policy), (fast, fast_policy) = _pair("javac", 60_001, make_policy)
    assert_equivalent("javac/instance-hook", ref, fast)
    assert fast_policy.seen == ref_policy.seen
    assert sum(fast_policy.seen) > 0


# -- shapes the stand-in benchmarks do not have -----------------------------


class _Scatter(MemoryBehavior):
    """A behaviour with no inlined body: the runner's list path."""

    def generate(self, rng, frame_base, region_base, iteration, n_loads,
                 n_stores):
        base = region_base + (iteration % 7) * 256
        return (
            [base + rng.randrange(0, 4096, 4) for _ in range(n_loads)],
            [base + rng.randrange(0, 4096, 4) for _ in range(n_stores)],
        )


def _odd_program():
    """Every decider kind, behaviours without an inlined body, a loop
    that repeats on its fall-through edge, and two threads."""
    mixed = MixedBehavior(
        [(StackBehavior(256), 1.0), (WorkingSetBehavior(8192, 0.6), 2.0)]
    )
    pb = ProgramBuilder(entry="main")
    leaf = pb.method("leaf").region(0x2000_0000, 16384)
    leaf.loop("l", 20, lambda rng: rng.randint(1, 9), "s", loads=4,
              stores=2, memory=_Scatter())
    leaf.branch("s", 12, AlternatingDecider(3), "w", "x", loads=3,
                stores=1, memory=WanderingWindowBehavior(512, 8192))
    leaf.straight("w", 30, "x", loads=13, stores=7, memory=mixed)
    leaf.ret("x", 2)
    leaf.done()
    work = pb.method("work").region(0x2100_0000, 16384)
    work.branch("p", 6, PeriodicDecider([True, True, False]), "p", "q",
                loads=2, stores=1, memory=StridedBehavior(4096, 64))
    work.branch("q", 8, PersistentAlternatingDecider(2), "r", "q",
                loads=3, stores=1, memory=mixed)
    work.branch("r", 5, RandomDecider(0.4), "t", "u", loads=1,
                memory=StackBehavior(128))
    work.straight("t", 4, "u")
    work.ret("u", 3, calls=["leaf"])
    work.done()
    main = pb.method("main")
    main.loop("m", 4, 1_000_000, "e", calls=["work", "leaf"])
    main.ret("e", 1)
    main.done()
    return pb.build()


def _vm_state(vm, policy):
    machine = vm.machine
    l1 = machine.hierarchy.l1d.stats
    return (
        machine.instructions,
        machine.cycles,
        machine.energy.totals(),
        (l1.read_accesses, l1.write_accesses, l1.read_misses,
         l1.write_misses, l1.fills, l1.writebacks),
        machine.hierarchy.l2.stats.accesses,
        (machine.predictor.lookups, machine.predictor.mispredictions),
        (vm.stats.blocks_executed, vm.stats.instructions_in_hotspots,
         tuple(vm.stats.thread_instructions)),
        dict(vm.sampler.samples),
        dict(machine.applied_reconfigurations),
        getattr(policy, "total_insns", None),
        dict(getattr(policy, "covered_insns", {})),
    )


@pytest.mark.parametrize(
    "make_policy",
    [
        AdaptationHooks,
        HotspotACEPolicy,
        lambda: BBVACEPolicy(sampling_interval=3_001),
    ],
    ids=["baseline", "hotspot", "bbv"],
)
@pytest.mark.parametrize("program", ["odd", 3, 17, 42, 101])
def test_unusual_programs(program, make_policy):
    states = []
    for kernel in (VirtualMachine, FastVirtualMachine):
        built = _odd_program() if program == "odd" else random_program(program)
        policy = make_policy()
        vm = kernel(
            built,
            build_machine(MachineConfig()),
            policy=policy,
            config=VMConfig(hot_threshold=2, quantum_blocks=11),
            thread_entries=["main", "main"] if program == "odd" else None,
        )
        vm.run(40_001)
        states.append(_vm_state(vm, policy))
    assert states[0] == states[1]


# -- inlined leaf calls ------------------------------------------------------
#
# Without a telemetry session, a runner runs a call to a hot, compiled,
# L1I-resident, stub-free leaf method inside itself.  The cases below
# put each gate inside such a callee and send calls down each fallback,
# against the reference, with both kernels untraced.


class _Spy:
    """Keeps every VM a test runs and the activations the fast kernel's
    ``_invoke`` pushed; any other activation was pushed by an inlined
    call."""

    def __init__(self, monkeypatch):
        self.vms = []
        self.invoked = []
        self._ids = set()
        self.thread = None
        spy = self
        for kernel in (VirtualMachine, FastVirtualMachine):
            monkeypatch.setattr(kernel, "run", self._wrap_run(kernel.run))
        invoke = FastVirtualMachine._invoke
        run_slice = FastVirtualMachine._slice

        def spy_invoke(vm, thread, method):
            invoke(vm, thread, method)
            spy.invoked.append(thread.stack[-1])
            spy._ids.add(id(thread.stack[-1]))

        def spy_slice(vm, thread, steps):
            spy.thread = thread
            run_slice(vm, thread, steps)

        monkeypatch.setattr(FastVirtualMachine, "_invoke", spy_invoke)
        monkeypatch.setattr(FastVirtualMachine, "_slice", spy_slice)

    def _wrap_run(self, run):
        def spy_run(vm, max_instructions):
            self.vms.append(vm)
            run(vm, max_instructions)

        return spy_run

    def inside_inlined(self, thread) -> bool:
        """Whether ``thread`` stopped right after a body of an inlined
        callee."""
        if not thread.stack:
            return False
        top = thread.stack[-1]
        return id(top) not in self._ids and top.phase == 1

    def inlined_calls(self, vm) -> int:
        """Calls the last run made without ``_invoke``."""
        calls = sum(p.invocations for p in vm.database._profiles.values())
        return calls - len(self.invoked)

    def reset(self):
        self.vms.clear()
        self.invoked.clear()
        self._ids.clear()


def _untraced(spy, bench, scheme, budget, policy=None):
    """Reference and fast results of one untraced cell; asserts the
    results and the sampler's per-method samples match.  Returns the
    fast result and VM."""
    spy.reset()
    results = []
    for kernel in ("reference", "fast"):
        results.append(
            execute(
                RunSpec(
                    bench,
                    scheme,
                    ExperimentConfig(max_instructions=budget,
                                     sim_kernel=kernel),
                    policy=policy() if policy is not None else None,
                )
            )
        )
    ref_vm, fast_vm = spy.vms
    assert_equivalent(f"{bench}/{scheme}@{budget}[untraced]", *results)
    assert fast_vm.sampler.samples == ref_vm.sampler.samples
    assert fast_vm.sampler.total_samples > 0
    return results[1], fast_vm


def _leaf_body_ends(bench: str, start: int = 20_000, spacing: int = 3_000):
    """Budgets whose last body belongs to a leaf method, with the thread
    that ran it: one per ``spacing`` instructions."""
    program = build_benchmark(bench).program
    recorder = _BlockEnds()
    execute(
        RunSpec(
            bench,
            "baseline",
            ExperimentConfig(max_instructions=start + 40_000),
            policy=recorder,
        )
    )
    picks = []
    for ends, event in recorder.ends:
        method = program.methods[event.method]
        if ends >= start and not any(
            block.calls for block in method.blocks.values()
        ):
            picks.append((ends, event.thread_id, event.method))
            start = ends + spacing
    return picks


@pytest.mark.parametrize("bench", ["javac", "mtrt"])  # jess: few calls yet
@pytest.mark.parametrize("scheme", SCHEMES)
def test_budget_inside_inlined_leaf(monkeypatch, bench, scheme):
    spy = _Spy(monkeypatch)
    for budget, thread_id, method in _leaf_body_ends(bench):
        result, vm = _untraced(spy, bench, scheme, budget)
        assert result.instructions == budget
        thread = vm.threads[thread_id]
        if spy.inside_inlined(thread):
            assert thread.stack[-1].method.name == method
            return
    pytest.fail(f"no budget stopped inside an inlined {bench} leaf")


@pytest.mark.parametrize("bench", ["jess", "mtrt"])
def test_bbv_boundary_inside_inlined_leaf(monkeypatch, bench):
    spy = _Spy(monkeypatch)
    inside = []
    boundary = FastVirtualMachine._bbv_boundary

    def spy_boundary(vm):
        inside.append(spy.inside_inlined(spy.thread))
        boundary(vm)

    monkeypatch.setattr(FastVirtualMachine, "_bbv_boundary", spy_boundary)
    _untraced(
        spy, bench, "baseline", 90_001,
        lambda: BBVACEPolicy(sampling_interval=7_919),
    )
    assert any(inside) and len(inside) >= 10


@pytest.mark.parametrize("scheme", SCHEMES)
def test_gc_due_inside_inlined_leaf(monkeypatch, scheme):
    def vm_config(**kwargs):
        if kwargs.get("gc_method"):
            kwargs["gc_period_instructions"] = 9_973
        return VMConfig(**kwargs)

    monkeypatch.setattr(driver, "VMConfig", vm_config)
    spy = _Spy(monkeypatch)
    inside = []
    maybe_gc = FastVirtualMachine._maybe_gc

    def spy_gc(vm, thread):
        inside.append(spy.inside_inlined(thread))
        maybe_gc(vm, thread)

    monkeypatch.setattr(FastVirtualMachine, "_maybe_gc", spy_gc)
    result, _ = _untraced(spy, "javac", scheme, 60_001)
    assert result.gc_invocations >= 5
    assert any(inside)


@pytest.mark.parametrize("quantum", [1, 3, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tiny_quantum_inside_inlined_leaf(monkeypatch, quantum, scheme):
    # A quantum of 8 also ends after an inlined return, at the caller's
    # terminator; a short sample period puts samples in every quantum.
    monkeypatch.setattr(
        driver,
        "VMConfig",
        functools.partial(
            VMConfig, quantum_blocks=quantum, sample_period_cycles=97.0
        ),
    )
    spy = _Spy(monkeypatch)
    inside = []
    run_slice = FastVirtualMachine._slice

    def spy_slice(vm, thread, steps):
        run_slice(vm, thread, steps)
        inside.append(spy.inside_inlined(thread))

    monkeypatch.setattr(FastVirtualMachine, "_slice", spy_slice)
    _, vm = _untraced(spy, "mtrt", scheme, 40_001)
    if quantum == 1:
        # No room for a launch and the callee's first body: every call
        # goes through _invoke.
        assert spy.inlined_calls(vm) == 0
    else:
        assert spy.inlined_calls(vm) > 0 and any(inside)


def _leaf_program(big_leaf: bool = False):
    """``main`` calls ``leaf`` (and, with ``big_leaf``, a leaf whose code
    fills the L1I) in a long loop."""
    pb = ProgramBuilder(entry="main")
    leaf = pb.method("leaf").region(0x2000_0000, 8192)
    leaf.loop("a", 12, 3, "b", loads=3, stores=1,
              memory=WorkingSetBehavior(4096, 0.5))
    leaf.ret("b", 4, loads=1, memory=StackBehavior(128))
    leaf.done()
    calls = ["leaf"]
    if big_leaf:
        big = pb.method("big")
        big.straight("a", 128, "b", loads=2, memory=StackBehavior(64))
        big.ret("b", 2)
        big.done()
        calls.append("big")
    main = pb.method("main")
    main.loop("m", 6, 1_000_000, "e", calls=calls, stores=1,
              memory=StackBehavior(64))
    main.ret("e", 1)
    main.done()
    return pb.build()


def _program_states(spy, make_program, machine_config):
    states = []
    for kernel in (VirtualMachine, FastVirtualMachine):
        policy = AdaptationHooks()
        vm = kernel(
            make_program(),
            build_machine(machine_config),
            policy=policy,
            config=VMConfig(hot_threshold=4),
        )
        vm.run(40_001)
        states.append(_vm_state(vm, policy))
    assert states[0] == states[1]
    return spy.vms[-1]


def test_not_yet_hot_callee_takes_invoke(monkeypatch):
    spy = _Spy(monkeypatch)
    vm = _program_states(spy, _leaf_program, MachineConfig())
    leaf = [a for a in spy.invoked if a.method.name == "leaf"]
    # Invocations 1-3 run cold and the 4th turns the leaf hot: all four
    # through _invoke; every later one is inlined.
    assert len(leaf) == 4
    assert vm.database._profiles["leaf"].invocations > 100


def test_l1i_miss_takes_invoke(monkeypatch):
    spy = _Spy(monkeypatch)
    vm = _program_states(
        spy, lambda: _leaf_program(big_leaf=True),
        MachineConfig(l1i_size=512),
    )
    # The big leaf evicts the small one on every iteration, so every
    # call of either misses the L1I and goes through _invoke.
    leaf = [a for a in spy.invoked if a.method.name == "leaf"]
    assert len(leaf) == vm.database._profiles["leaf"].invocations > 100
    assert vm.machine.hierarchy.l1i.fetch_misses > 200


def test_stubbed_callee_takes_invoke(monkeypatch):
    spy = _Spy(monkeypatch)
    stubbed = []
    invoke = FastVirtualMachine._invoke

    def spy_invoke(vm, thread, method):
        name = method.name
        if name in vm._hotspots and (
            name in vm._entry_stubs or name in vm._exit_stubs
        ) and not any(b.calls for b in method.blocks.values()):
            stubbed.append(name)
        invoke(vm, thread, method)

    monkeypatch.setattr(FastVirtualMachine, "_invoke", spy_invoke)
    _, vm = _untraced(spy, "javac", "hotspot", 120_001)
    assert stubbed
    assert spy.inlined_calls(vm) > 0


def test_telemetry_sends_every_call_through_invoke(monkeypatch):
    spy = _Spy(monkeypatch)
    inlined = []
    for traced in (True, False):
        spy.reset()
        run_cell("javac", "hotspot", "fast", 60_001, traced=traced)
        inlined.append(spy.inlined_calls(spy.vms[-1]))
    assert inlined[0] == 0 < inlined[1]


def test_preloaded_hotspots_are_inlined_once_compiled(monkeypatch):
    # A persisted DO database makes its hotspots hot from their first
    # call, before this run has compiled them or completed a call: the
    # first call compiles through _invoke, later ones are inlined.
    spy = _Spy(monkeypatch)
    built = build_benchmark("db")
    recorder = VirtualMachine(
        built.program, build_machine(MachineConfig()),
        policy=HotspotACEPolicy(), config=VMConfig(),
        thread_entries=built.thread_entries,
    )
    recorder.run(150_001)
    saved = recorder.database.to_dict()
    spy.reset()
    results = []
    for kernel in ("reference", "fast"):
        results.append(
            execute(
                RunSpec(
                    "db",
                    "hotspot",
                    ExperimentConfig(max_instructions=150_001,
                                     sim_kernel=kernel),
                    preload_database=DODatabase.from_dict(saved),
                )
            )
        )
    assert_equivalent("db/hotspot[preloaded]", *results)
    assert spy.inlined_calls(spy.vms[-1]) > 0
