"""The virtual machine: execution engine + DO services (paper Figure 2).

The VM interprets a program at block granularity, feeding every block event
through the machine model, while providing the dynamic-optimization
services the ACE framework builds on:

* compile-only execution — baseline compile on first invocation, hotspot
  recompilation at the top optimisation level (§4.2);
* invocation counting and hotspot detection (§3.1);
* instrumentation dispatch — if the JIT has an entry/exit stub patched on a
  hotspot, the VM invokes it at every hotspot entry/exit (the tuning /
  profiling / configuration / sampling code of §3.2–3.3);
* a timer-sampling profiler, round-robin threading (mtrt), and an optional
  GC service method.

Adaptation policies see execution through :class:`AdaptationHooks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.isa.program import (
    CondBranch,
    Goto,
    Method,
    Program,
    Return,
)
from repro.obs.events import (
    HOTSPOT_DETECTED,
    HOTSPOT_INVOKE,
    NULL_TELEMETRY,
)
from repro.trace.events import BlockEvent
from repro.uarch.machine import MachineModel
from repro.vm.activation import ThreadContext
from repro.vm.hotspot import DODatabase, HotspotDetector, HotspotInfo
from repro.vm.jit import JITCompiler
from repro.vm.sampler import SamplingProfiler

_EMPTY: List[int] = []


@dataclass
class VMConfig:
    """Knobs of the DO system."""

    #: Invocations before a method is promoted to hotspot (paper Table 1).
    hot_threshold: int = 4
    #: Micro-steps each thread runs before round-robin switching: a
    #: block body, each of its call launches and its terminator count
    #: one step each (both kernels).  Jikes 2.0.2 time-slices green
    #: threads every ~10 ms — ~10 M cycles at 1 GHz, which is ~100 K
    #: instructions at the 1/100 interval scale — so the quantum is
    #: coarse, not fine-grained interleaving.
    quantum_blocks: int = 15000
    #: Simulated cycles between profiler samples (Jikes: ~10 ms).
    sample_period_cycles: float = 10_000.0
    #: Name of a GC service method to invoke periodically ('' disables).
    gc_method: str = ""
    #: Instructions between GC service invocations.
    gc_period_instructions: int = 0
    #: Charge JIT compilation time to the simulated clock.
    charge_compile_cycles: bool = True
    #: Random seed base for thread execution streams.
    seed: int = 12345


class AdaptationHooks:
    """Policy interface; the default implementation adapts nothing.

    ``on_hotspot_detected`` is where a policy installs tuning/profiling
    stubs through ``vm.jit`` — after that, the stubs themselves run at each
    hotspot boundary, exactly as in the paper's flowchart.
    """

    name = "static"

    #: Declares whether this policy's ``on_block`` reads the event's
    #: ``loads``/``stores`` address lists.  The conservative default is
    #: True; a policy that only consumes block *counts* (``n_insns``,
    #: ``block_pc``, ``thread_id``, …) may set it to False, which lets
    #: the fast kernel keep its fused draw+cache path (the hook then
    #: receives a BlockEvent whose address lists are empty).  Both
    #: shipped ACE schemes are count-only.  An ``on_block`` overridden
    #: on the *instance* ignores the declaration (conservative).
    on_block_reads_addresses = True

    def attach(self, vm: "VirtualMachine") -> None:
        """Called once before the run starts."""

    def on_block(self, event: BlockEvent, machine: MachineModel) -> None:
        """Called after every block event has been consumed."""

    def on_block_counts(
        self, n_insns: int, block_pc: int, thread_id: int,
        machine: MachineModel,
    ) -> None:
        """Narrow per-block hook for count-only policies (fast kernel).

        A policy that sets ``on_block_reads_addresses = False`` may also
        override this method with the same state updates as its
        ``on_block``; the fast kernel then calls it instead of
        allocating a :class:`BlockEvent` per block.  The reference
        kernel always calls ``on_block``, so the two implementations
        must be behaviourally identical — the differential equivalence
        grid compares full run results (including policy decisions)
        across kernels and catches any divergence.  The default is never
        invoked: without an override the fast kernel falls back to
        ``on_block`` with an empty-address event.
        """

    def counts_fold(self) -> Optional["CountsFold"]:
        """Declare ``on_block_counts`` as counts the fast kernel keeps.

        A count-only policy whose per-block hook only adds block counts
        to counters may return a :class:`CountsFold` restating them; the
        fast kernel then keeps those counts itself and never calls the
        per-block hook.  The reference kernel still calls ``on_block``
        for every block, and the differential equivalence grid holds
        the two to identical results.  ``None`` (the default) keeps the
        per-block hook.  The kernel ignores the declaration when
        ``on_block`` or ``on_block_counts`` is overridden on the
        instance.
        """
        return None

    def on_hotspot_detected(
        self, hotspot: HotspotInfo, vm: "VirtualMachine"
    ) -> None:
        """Called once when a method turns hot (after JIT optimisation)."""

    def on_run_end(self, vm: "VirtualMachine") -> None:
        """Called when the run's instruction budget is exhausted."""


class CountsFold:
    """A count-only per-block hook, restated as counts (see
    :meth:`AdaptationHooks.counts_fold`).

    The fast kernel keeps the counts and hands them over at every exit
    of a method runner: the calls, returns, budget and quantum ends and
    gate crossings that end a run of blocks.  Nothing a policy observes
    changes between two exits, except through its own stubs and
    boundaries, which only run at exits.

    * ``flush(n_insns, thread_id)`` is called at every exit with the
      instructions ``thread_id`` retired since the previous one.  It
      must leave the policy as ``on_block_counts`` called once per block
      would have.
    * ``accumulator`` (optional) is a
      :class:`~repro.phases.bbv.BBVAccumulator`: the kernel adds each
      block's instruction count to bucket ``(block_pc >> 2) %
      n_buckets`` of its counter list, as ``observe`` would.  The policy
      harvests it at every boundary of ``splitter``, which must be
      given; the kernel refuses the fold when a counter could saturate
      between two harvests.
    * ``splitter`` (optional) is the
      :class:`~repro.trace.stream.IntervalSplitter` that
      ``on_block_counts`` advances.  The kernel advances it with the
      instructions since its last advance, right after the block that
      crosses an interval boundary, so boundaries fire where they
      would have.
    """

    __slots__ = ("flush", "accumulator", "splitter")

    def __init__(self, flush, accumulator=None, splitter=None):
        self.flush = flush
        self.accumulator = accumulator
        self.splitter = splitter


class VMStats:
    """Run-level statistics owned by the VM."""

    __slots__ = (
        "blocks_executed",
        "instructions_in_hotspots",
        "gc_invocations",
        "thread_instructions",
    )

    def __init__(self, n_threads: int):
        self.blocks_executed = 0
        self.instructions_in_hotspots = 0
        self.gc_invocations = 0
        self.thread_instructions = [0] * n_threads


class VirtualMachine:
    """Executes a program on a machine model under an adaptation policy."""

    def __init__(
        self,
        program: Program,
        machine: MachineModel,
        policy: Optional[AdaptationHooks] = None,
        config: Optional[VMConfig] = None,
        thread_entries: Optional[Sequence[str]] = None,
        preload_database: Optional[DODatabase] = None,
        telemetry=None,
    ):
        if not program.is_laid_out:
            raise ValueError(
                "program must be validated/laid out before execution "
                "(call Program.validated())"
            )
        self.program = program
        self.machine = machine
        self.policy = policy or AdaptationHooks()
        self.config = config or VMConfig()
        entries = list(thread_entries or [program.entry])
        for entry in entries:
            if entry not in program.methods:
                raise ValueError(f"unknown thread entry method {entry!r}")
        self.threads = [
            ThreadContext(i, program, entry, self.config.seed + 7919 * i)
            for i, entry in enumerate(entries)
        ]
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        machine.telemetry = self.telemetry
        self.database = preload_database or DODatabase()
        self.detector = HotspotDetector(
            self.database, self.config.hot_threshold
        )
        self.jit = JITCompiler()
        self.sampler = SamplingProfiler(self.config.sample_period_cycles)
        self.stats = VMStats(len(self.threads))
        self._gc_last = 0
        self._gc_active = 0
        self.policy.attach(self)
        # Preloaded hotspots (a persisted DO database from a previous run
        # of the same workload) are announced to the policy up front: they
        # are recognised from their first invocation, with zero
        # identification latency.
        for name, info in self.database.hotspots.items():
            if name in program.methods:
                self.policy.on_hotspot_detected(info, self)

    # -- DO service plumbing ------------------------------------------------

    def _charge_cycles(self, cycles: float) -> None:
        """Charge VM-service time (JIT compiles) to the simulated clock."""
        if cycles and self.config.charge_compile_cycles:
            self.machine.cycles += cycles
            self.machine.energy.add_cycles(cycles)

    def _invoke(self, thread: ThreadContext, method: Method) -> None:
        machine = self.machine
        self._charge_cycles(
            self.jit.ensure_baseline(method, machine.instructions)
        )
        newly_hot = self.detector.on_invocation(
            method.name, machine.instructions
        )
        if newly_hot is not None:
            self._charge_cycles(
                self.jit.optimize_hotspot(method, machine.instructions)
            )
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    HOTSPOT_DETECTED,
                    ts=machine.instructions,
                    track="vm",
                    method=method.name,
                    invocations=newly_hot.profile.invocations,
                    mean_size=newly_hot.mean_size,
                )
                telemetry.metrics.counter("vm.hotspots_detected").inc()
            self.policy.on_hotspot_detected(newly_hot, self)
        activation = thread.push(method)
        activation.entry_instructions = machine.instructions
        activation.entry_cycles = machine.cycles
        machine.on_method_entry(method.name, method.code_footprint)
        info = self.database.hotspots.get(method.name)
        if info is not None:
            activation.is_hotspot = True
            thread.hotspot_depth += 1
            stub = self.jit.entry_stub(method.name)
            if stub is not None:
                stub.fn(info, activation, self)

    def _return(self, thread: ThreadContext) -> None:
        activation = thread.pop()
        name = activation.method.name
        inclusive = (
            self.machine.instructions - activation.entry_instructions
        )
        self.database.profile(name).record_completion(inclusive)
        if activation.is_hotspot:
            thread.hotspot_depth -= 1
            info = self.database.hotspots[name]
            info.instructions_inside += inclusive
            stub = self.jit.exit_stub(name)
            if stub is not None:
                stub.fn(info, activation, self)
            telemetry = self.telemetry
            if telemetry.enabled and inclusive > 0:
                telemetry.emit(
                    HOTSPOT_INVOKE,
                    ts=activation.entry_instructions,
                    track=f"hotspot:{name}",
                    dur=inclusive,
                )
        if self._gc_active and name == self.config.gc_method:
            self._gc_active -= 1

    def _maybe_gc(self, thread: ThreadContext) -> None:
        config = self.config
        if (
            not config.gc_method
            or config.gc_period_instructions <= 0
            or self._gc_active
        ):
            return
        if (
            self.machine.instructions - self._gc_last
            >= config.gc_period_instructions
        ):
            self._gc_last = self.machine.instructions
            self._gc_active += 1
            self.stats.gc_invocations += 1
            self._invoke(thread, self.program.methods[config.gc_method])

    # -- execution ------------------------------------------------------------

    def _step(self, thread: ThreadContext) -> None:
        """Advance one thread by one micro-step (block body, call, or
        control transfer)."""
        activation = thread.stack[-1]
        method = activation.method
        block = method.blocks[activation.bid]
        phase = activation.phase

        if phase == 0:
            self._execute_body(thread, activation, block)
            activation.phase = 1
            return

        calls = block.calls
        if phase <= len(calls):
            activation.phase = phase + 1
            callee = self.program.methods[calls[phase - 1].callee]
            self._invoke(thread, callee)
            return

        term = block.terminator
        if isinstance(term, Return):
            self._return(thread)
            if not thread.stack:
                thread.finished = True
            return
        if isinstance(term, Goto):
            activation.bid = term.target
        else:  # CondBranch — outcome decided at body time
            taken = activation.loop_states.pop("__pending__")
            activation.bid = term.taken if taken else term.fallthrough
        activation.phase = 0

    def _execute_body(self, thread, activation, block) -> None:
        machine = self.machine
        mix = block.mix
        memory = block.memory
        method_name = activation.method.name
        if memory is not None and (mix.loads or mix.stores):
            # Iteration counters persist across invocations (per thread):
            # streaming behaviours progress through their spans the way a
            # real workload progresses through its input.
            key = (method_name, block.bid)
            iterations = thread.block_iterations
            iteration = iterations.get(key, 0)
            iterations[key] = iteration + 1
            region = activation.method.region
            loads, stores = memory.generate(
                thread.rng,
                activation.frame_base,
                region.base if region is not None else 0,
                iteration,
                mix.loads,
                mix.stores,
            )
        else:
            loads, stores = _EMPTY, _EMPTY

        term = block.terminator
        if isinstance(term, CondBranch):
            decider = term.decider
            if decider.persistent:
                states = thread.persistent_decider_states
                state_key = (method_name, block.bid)
            else:
                states = activation.loop_states
                state_key = block.bid
            state = states.get(state_key, _SENTINEL)
            if state is _SENTINEL:
                state = decider.initial_state(thread.rng)
            taken, new_state = decider.decide(state, thread.rng)
            states[state_key] = new_state
            activation.loop_states["__pending__"] = taken
            branch_pc = block.branch_pc
        else:
            taken = True
            branch_pc = None

        event = BlockEvent(
            activation.method.name,
            block.bid,
            mix.total,
            loads,
            stores,
            branch_pc,
            taken,
            serialized=getattr(memory, "serialized", False),
            thread_id=thread.thread_id,
            block_pc=block.branch_pc or 0,
        )
        cycles = machine.consume(event)
        stats = self.stats
        stats.blocks_executed += 1
        stats.thread_instructions[thread.thread_id] += mix.total
        if thread.hotspot_depth:
            stats.instructions_in_hotspots += mix.total
        self.policy.on_block(event, machine)
        self.sampler.advance(machine.cycles, activation.method.name)
        del cycles

    def run(self, max_instructions: int) -> None:
        """Run until ``max_instructions`` retire or all threads finish."""
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        machine = self.machine
        quantum = self.config.quantum_blocks
        threads = self.threads
        for thread in threads:
            self._invoke(thread, self.program.methods[thread.entry_method])
        gc_enabled = bool(
            self.config.gc_method
            and self.config.gc_period_instructions > 0
        )
        while machine.instructions < max_instructions:
            alive = False
            for thread in threads:
                if thread.finished:
                    continue
                alive = True
                for _ in range(quantum):
                    if (
                        thread.finished
                        or machine.instructions >= max_instructions
                    ):
                        break
                    if gc_enabled:
                        self._maybe_gc(thread)
                    self._step(thread)
                if machine.instructions >= max_instructions:
                    break
            if not alive:
                break
        self.policy.on_run_end(self)

    # -- convenience ------------------------------------------------------------

    @property
    def hotspots(self) -> Dict[str, HotspotInfo]:
        return self.database.hotspots

    def __repr__(self) -> str:
        return (
            f"VirtualMachine(program={self.program.entry!r}, "
            f"threads={len(self.threads)}, "
            f"insns={self.machine.instructions})"
        )


_SENTINEL = object()
