"""Fast-path simulation kernel.

:class:`FastVirtualMachine` executes exactly the semantics of
:class:`repro.vm.vm.VirtualMachine` — same micro-step structure, same
event/callback order, same float operation order — but restructured for
speed:

* blocks are pre-decoded once into flat :class:`~repro.vm.jit.DecodedBlock`
  tables (no isinstance checks or ``getattr`` in the hot loop);
* the machine model's ``consume`` is inlined: cache levels are accessed
  through :meth:`~repro.uarch.cache.Cache.access_block` (flat tuples, no
  ``AccessResult``/``HierarchyTraffic`` allocation), the bimodal predictor
  and the timing/energy arithmetic are inlined with the reference
  expressions verbatim;
* ``BlockEvent`` objects are allocated only when the adaptation policy
  actually overrides ``on_block`` (the baseline scheme skips them);
* for single-threaded, GC-free runs the body and terminator micro-steps of
  call-less blocks are fused into one loop iteration (observably identical:
  with one thread the quantum only schedules, and the terminator step has
  no side effects besides activation bookkeeping).

Bit-identity with the reference kernel is not an aspiration but a tested
contract — ``tests/test_kernel_equivalence.py`` diffs the two kernels'
``RunResult`` bundles, telemetry timelines, and pinned configurations over
the benchmark × scheme × config grid.  When editing either kernel, keep
the float *operation order* identical: energy prices (``_read_nj`` …) and
``_ilp_factor`` are re-read every block because reconfigurations change
them mid-run; only true constants are hoisted out of the loop.
"""

from __future__ import annotations

from repro.obs.events import HOTSPOT_DETECTED, HOTSPOT_INVOKE
from repro.trace.events import BlockEvent
from repro.vm.activation import FRAME_BYTES, Activation
from repro.vm.hotspot import HotspotInfo, MethodProfile
from repro.vm.jit import (
    PSTATE_UNSET,
    TERM_COND,
    TERM_GOTO,
    TERM_RETURN,
    BlockDecoder,
)
from repro.vm.vm import AdaptationHooks, VirtualMachine, _EMPTY, _SENTINEL


def _counts_hook(policy, on_block, counts_only):
    """The bound narrow hook, or None when ``on_block`` must be used.

    A count-only policy that overrides ``on_block_counts`` gets its
    per-block callback without a BlockEvent allocation; anything else
    (no hook at all, address-reading hook, or no narrow override)
    returns None and the runner falls back to ``on_block``.
    """
    if on_block is None or not counts_only:
        return None
    if (
        type(policy).on_block_counts is AdaptationHooks.on_block_counts
        and "on_block_counts" not in policy.__dict__
    ):
        return None
    return policy.on_block_counts


class FastVirtualMachine(VirtualMachine):
    """Drop-in replacement for :class:`VirtualMachine`, ~3-5x faster."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._decoder = BlockDecoder(self.program)
        # Stable per-run containers, pre-bound to shave attribute chains
        # off the _invoke/_return hot paths.  All are mutated in place
        # and never reassigned by the reference implementation.
        self._levels = self.jit.levels
        self._entry_stubs = self.jit.entry_stubs
        self._exit_stubs = self.jit.exit_stubs
        self._profiles = self.database._profiles
        self._hotspots = self.database.hotspots

    def _invoke(self, thread, method) -> None:
        """Reference ``_invoke`` with its service chain inlined.

        The common case — method already baseline-compiled, not newly
        hot, code resident in the L1I, not a hotspot — runs without any
        sub-calls.  Rare branches replicate the reference verbatim
        (promotion mirrors ``HotspotDetector.on_invocation``; an L1I miss
        falls back to ``machine.on_method_entry``, whose hit path is only
        the LRU refresh performed inline here).
        """
        machine = self.machine
        name = method.name
        if name not in self._levels:
            self._charge_cycles(
                self.jit.ensure_baseline(method, machine.instructions)
            )
        profiles = self._profiles
        profile = profiles.get(name)
        if profile is None:
            profile = MethodProfile(name)
            profiles[name] = profile
        profile.invocations += 1
        hotspots = self._hotspots
        if profile.is_hot:
            hotspots[name].invocations_since_hot += 1
        elif (
            profile.invocations >= self.detector.hot_threshold
            and profile.completed_invocations > 0
        ):
            profile.is_hot = True
            profile.detected_at = machine.instructions
            profile.detected_at_invocation = profile.invocations
            newly_hot = HotspotInfo(profile, machine.instructions)
            newly_hot.invocations_since_hot = 1
            hotspots[name] = newly_hot
            self._charge_cycles(
                self.jit.optimize_hotspot(method, machine.instructions)
            )
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    HOTSPOT_DETECTED,
                    ts=machine.instructions,
                    track="vm",
                    method=name,
                    invocations=newly_hot.profile.invocations,
                    mean_size=newly_hot.mean_size,
                )
                telemetry.metrics.counter("vm.hotspots_detected").inc()
            self.policy.on_hotspot_detected(newly_hot, self)
        stack = thread.stack
        # Activation.__init__ unrolled (slot stores only; one call saved
        # per invocation adds up at this frequency).
        activation = Activation.__new__(Activation)
        activation.method = method
        activation.bid = method.entry
        activation.phase = 0
        activation.frame_base = (
            thread.stack_base - len(stack) * FRAME_BYTES
        )
        activation.loop_states = {}
        activation.entry_instructions = machine.instructions
        activation.entry_cycles = machine.cycles
        activation.is_hotspot = False
        activation.policy_token = None
        stack.append(activation)
        l1i = machine.hierarchy.l1i
        resident = l1i._resident
        if name in resident:
            l1i.method_switches += 1
            resident[name] = resident.pop(name)
        else:
            machine.on_method_entry(name, method.code_footprint)
        info = hotspots.get(name)
        if info is not None:
            activation.is_hotspot = True
            thread.hotspot_depth += 1
            stub = self._entry_stubs.get(name)
            if stub is not None:
                stub.fn(info, activation, self)

    def _return(self, thread) -> None:
        """Reference ``_return`` with the DO-database update inlined."""
        activation = thread.stack.pop()
        name = activation.method.name
        inclusive = (
            self.machine.instructions - activation.entry_instructions
        )
        profiles = self._profiles
        profile = profiles.get(name)
        if profile is None:
            profile = MethodProfile(name)
            profiles[name] = profile
        profile.completed_invocations += 1
        if profile.completed_invocations == 1:
            profile.mean_size = float(inclusive)
        else:
            profile.mean_size += profile.ALPHA * (
                inclusive - profile.mean_size
            )
        if not profile.is_hot:
            profile.pre_hot_instructions += inclusive
        if activation.is_hotspot:
            thread.hotspot_depth -= 1
            info = self._hotspots[name]
            info.instructions_inside += inclusive
            stub = self._exit_stubs.get(name)
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
        # The fused runner drops quantum slicing and micro-step phases for
        # straight-line code; that is only transparent when nothing can
        # observe the seams — a second thread's quantum or a GC check
        # could otherwise fall between two micro-steps.
        if len(threads) == 1 and not gc_enabled:
            thread = threads[0]
            if not thread.finished:
                self._run_fused(thread, max_instructions)
            self.policy.on_run_end(self)
            return
        while machine.instructions < max_instructions:
            alive = False
            for thread in threads:
                if thread.finished:
                    continue
                alive = True
                self._run_quantum(
                    thread, quantum, max_instructions, gc_enabled
                )
                if machine.instructions >= max_instructions:
                    break
            if not alive:
                break
        self.policy.on_run_end(self)

    def _run_quantum(
        self, thread, quantum, max_instructions, gc_enabled
    ) -> None:
        """Run one thread for up to ``quantum`` micro-steps."""
        machine = self.machine
        hierarchy = machine.hierarchy
        l1 = hierarchy.l1d
        l2 = hierarchy.l2
        l1_access = l1.access_block
        l1_stats = l1.stats
        l2_access = l2.access_block
        predictor = machine.predictor
        pred_table = predictor._table
        pred_mask = predictor._mask
        timing = machine.timing
        (
            cycles_per_insn,
            l2_hit_latency,
            memory_latency,
            mispredict_penalty,
            mlp,
        ) = timing.hot_constants()
        energy = machine.energy
        l1e = energy.l1d
        l2e = energy.l2
        memory_access_nj = energy.memory_access_nj
        pipeline = tuple(energy.pipeline.values())
        policy = self.policy
        # Skip BlockEvent allocation entirely for the do-nothing baseline
        # hook; an instance-attribute override still counts as a hook.
        if (
            type(policy).on_block is AdaptationHooks.on_block
            and "on_block" not in policy.__dict__
        ):
            on_block = None
            counts_only = True
        else:
            on_block = policy.on_block
            # A class-level hook declaring it never reads the event's
            # address lists keeps the fused path; it then sees a
            # BlockEvent with empty loads/stores.  Instance overrides
            # are conservative (addresses assumed read).
            counts_only = (
                not policy.on_block_reads_addresses
                and "on_block" not in policy.__dict__
            )
        counts_hook = _counts_hook(policy, on_block, counts_only)
        sampler = self.sampler
        sampler_advance = sampler.advance
        stats = self.stats
        thread_insns = stats.thread_instructions
        thread_id = thread.thread_id
        rng = thread.rng
        block_iterations = thread.block_iterations
        persistent_states = thread.persistent_decider_states
        stack = thread.stack
        tables = self._decoder.tables
        get_table = self._decoder.table
        # Method names are interned attribute reads of the same str object,
        # so identity comparison caches the per-method decode table across
        # consecutive micro-steps inside one method.
        cur_name = None
        cur_table = None

        # Each loop turn consumes one micro-step; ``steps`` is the
        # quantum countdown.  With GC off nothing can be scheduled
        # between two consecutive micro-steps of the same thread, so
        # after a body the successor micro-steps of the *same*
        # activation (call launch, terminator, and the next body after
        # a goto/branch) are chained inline without re-deriving
        # ``stack[-1]``/method/decode-table — the budget and quantum
        # gates stay at every micro-step boundary, so the thread
        # interleave and all architectural state are unchanged.
        steps = quantum
        while steps > 0:
            if thread.finished or machine.instructions >= max_instructions:
                return
            if gc_enabled:
                self._maybe_gc(thread)
            activation = stack[-1]
            method = activation.method
            name = method.name
            if name is not cur_name:
                cur_table = tables.get(name)
                if cur_table is None:
                    cur_table = get_table(method)
                cur_name = name
            dec = cur_table[activation.bid]
            phase = activation.phase

            if phase == 0:
                while True:
                    # ---- block body (reference: _execute_body) ----
                    # Same fused fast path as _run_fused (see there for the
                    # ordering argument); iteration counters stay in the
                    # per-thread dict because the decode table is shared.
                    fused = dec.fused_gen if counts_only else None
                    if fused is not None:
                        if dec.needs_iter:
                            key = dec.key
                            iteration = block_iterations.get(key, 0)
                            block_iterations[key] = iteration + 1
                        else:
                            iteration = 0
                        r_m, w_m, miss_lines, wb_lines = fused(
                            rng,
                            activation.frame_base,
                            dec.region_base,
                            iteration,
                            l1,
                            _SENTINEL,
                        )
                        nl = dec.n_loads
                        ns = dec.n_stores
                        # Count-only hooks never read the address lists.
                        loads = stores = _EMPTY
                        # Stats epilogue access_block would have applied
                        # (fills == miss count; lists may be None when empty).
                        l1_stats.read_accesses += nl
                        l1_stats.read_misses += r_m
                        l1_stats.write_accesses += ns
                        l1_stats.write_misses += w_m
                        l1_stats.fills += r_m + w_m
                        if wb_lines:
                            l1_stats.writebacks += len(wb_lines)
                    else:
                        fgen = dec.fast_gen
                        if fgen is not None:
                            if dec.needs_iter:
                                key = dec.key
                                iteration = block_iterations.get(key, 0)
                                block_iterations[key] = iteration + 1
                            else:
                                iteration = 0
                            loads, stores = fgen(
                                rng,
                                activation.frame_base,
                                dec.region_base,
                                iteration,
                            )
                        else:
                            loads = stores = _EMPTY
                        # (reference: MachineModel.consume)
                        (r_h, r_m, w_h, w_m, miss_lines, wb_lines) = l1_access(
                            loads, stores
                        )
                        nl = r_h + r_m
                        ns = w_h + w_m

                    decider = dec.decider
                    if decider is not None:
                        if dec.persistent:
                            states = persistent_states
                            skey = dec.key
                        else:
                            states = activation.loop_states
                            skey = dec.bid
                        state = states.get(skey, _SENTINEL)
                        if state is _SENTINEL:
                            state = decider.initial_state(rng)
                        taken, new_state = decider.decide(state, rng)
                        states[skey] = new_state
                        branch_pc = dec.branch_pc
                    else:
                        taken = True
                        branch_pc = None
                    l1_misses = r_m + w_m
                    if miss_lines or wb_lines:
                        (l2_rh, l2_rm, l2_wh, l2_wm, _l2_miss, l2_wb) = (
                            l2_access(miss_lines or _EMPTY, wb_lines or _EMPTY)
                        )
                        l2_misses = l2_rm + l2_wm
                        hierarchy.memory_reads += l2_misses
                        hierarchy.memory_writes += len(l2_wb)
                        have_l2 = True
                    else:
                        l2_misses = 0
                        have_l2 = False

                    mispredicts = 0
                    if branch_pc is not None:
                        index = (branch_pc >> 2) & pred_mask
                        counter = pred_table[index]
                        if taken:
                            if counter < 3:
                                pred_table[index] = counter + 1
                        elif counter > 0:
                            pred_table[index] = counter - 1
                        predictor.lookups += 1
                        if (counter >= 2) != taken:
                            predictor.mispredictions += 1
                            mispredicts = 1

                    n_insns = dec.n_insns
                    cycles = n_insns * cycles_per_insn / timing._ilp_factor
                    if l1_misses or l2_misses:
                        overlap = 1.0 if dec.serialized else mlp
                        cycles += l1_misses * (l2_hit_latency / overlap)
                        cycles += l2_misses * (memory_latency / overlap)
                    if mispredicts:
                        cycles += mispredicts * mispredict_penalty

                    # Energy prices are re-read per block: resizes re-bind them.
                    l1e.dynamic_nj += (
                        nl * l1e._read_nj + (ns + l1_misses) * l1e._write_nj
                    )
                    if have_l2:
                        l2e.dynamic_nj += (
                            (l2_rh + l2_rm) * l2e._read_nj
                            + (l2_wh + l2_wm + l2_misses) * l2e._write_nj
                        )
                        energy.memory_nj += (
                            (l2_misses + len(l2_wb)) * memory_access_nj
                        )
                    l1e.leakage_nj += cycles * l1e._leak_nj
                    l2e.leakage_nj += cycles * l2e._leak_nj
                    for component in pipeline:
                        component.energy_nj += cycles * component._nj
                    machine.instructions += n_insns
                    machine.cycles += cycles

                    # ---- VM bookkeeping + hooks ----
                    stats.blocks_executed += 1
                    thread_insns[thread_id] += n_insns
                    if thread.hotspot_depth:
                        stats.instructions_in_hotspots += n_insns
                    if counts_hook is not None:
                        counts_hook(n_insns, dec.block_pc, thread_id, machine)
                    elif on_block is not None:
                        on_block(
                            BlockEvent(
                                dec.method_name,
                                dec.bid,
                                n_insns,
                                loads,
                                stores,
                                branch_pc,
                                taken,
                                dec.serialized,
                                thread_id,
                                dec.block_pc,
                            ),
                            machine,
                        )
                    # Cycles re-read after the hook: a reconfiguration inside
                    # on_block charges stall cycles the sampler must see.
                    now_cycles = machine.cycles
                    if now_cycles >= sampler._next_sample_at:
                        sampler_advance(now_cycles, dec.method_name)

                    activation.phase = 1
                    if decider is not None:
                        activation.loop_states["__pending__"] = taken
                    steps -= 1
                    if gc_enabled or steps == 0:
                        break
                    if machine.instructions >= max_instructions:
                        return
                    # ---- chained call launch / terminator ----
                    if dec.n_calls:
                        activation.phase = 2
                        self._invoke(thread, dec.callees[0])
                        steps -= 1
                        break
                    kind = dec.term_kind
                    if kind == TERM_RETURN:
                        self._return(thread)
                        steps -= 1
                        if not stack:
                            thread.finished = True
                            return
                        break
                    if kind == TERM_GOTO:
                        activation.bid = dec.goto_target
                    else:
                        taken = activation.loop_states.pop("__pending__")
                        activation.bid = (
                            dec.taken_target
                            if taken
                            else dec.fallthrough_target
                        )
                    activation.phase = 0
                    steps -= 1
                    if steps == 0:
                        return
                    if machine.instructions >= max_instructions:
                        return
                    dec = cur_table[activation.bid]
                    # back to the chained block's body
                continue

            # ---- call launches ----
            if phase <= dec.n_calls:
                activation.phase = phase + 1
                self._invoke(thread, dec.callees[phase - 1])
                steps -= 1
                continue

            # ---- terminator ----
            kind = dec.term_kind
            if kind == TERM_RETURN:
                self._return(thread)
                if not stack:
                    thread.finished = True
                steps -= 1
                continue
            if kind == TERM_GOTO:
                activation.bid = dec.goto_target
            else:
                taken = activation.loop_states.pop("__pending__")
                activation.bid = (
                    dec.taken_target if taken else dec.fallthrough_target
                )
            activation.phase = 0
            steps -= 1

    def _run_fused(self, thread, max_instructions) -> None:
        """Single-thread, GC-free runner: the whole budget in one call.

        With one thread and no GC, quantum boundaries and the body /
        call / terminator micro-step seams are unobservable — no other
        thread can be scheduled between them and ``_maybe_gc`` never
        fires — so straight-line code runs in a tight loop that chains
        pre-linked :class:`DecodedBlock` successors directly, keeps the
        per-block iteration counter and persistent decider state in
        decode-table slots, and inlines the L1D access loop.  The
        instruction-budget gate is preserved at every point the
        reference checks it: before each body, before each terminator
        (a body that exhausts the budget leaves its terminator
        unevaluated), and before each call launch.  On every exit the
        activation's ``bid``/``phase``/``__pending__`` state is written
        back exactly as the reference would have left it.
        """
        machine = self.machine
        hierarchy = machine.hierarchy
        l1 = hierarchy.l1d
        l1_stats = l1.stats
        l2_access = hierarchy.l2.access_block
        predictor = machine.predictor
        pred_table = predictor._table
        pred_mask = predictor._mask
        timing = machine.timing
        (
            cycles_per_insn,
            l2_hit_latency,
            memory_latency,
            mispredict_penalty,
            mlp,
        ) = timing.hot_constants()
        energy = machine.energy
        l1e = energy.l1d
        l2e = energy.l2
        memory_access_nj = energy.memory_access_nj
        pipeline = tuple(energy.pipeline.values())
        policy = self.policy
        if (
            type(policy).on_block is AdaptationHooks.on_block
            and "on_block" not in policy.__dict__
        ):
            on_block = None
            counts_only = True
        else:
            on_block = policy.on_block
            # See _run_quantum: count-only class hooks keep the fused
            # path and receive BlockEvents with empty address lists.
            counts_only = (
                not policy.on_block_reads_addresses
                and "on_block" not in policy.__dict__
            )
        counts_hook = _counts_hook(policy, on_block, counts_only)
        sampler = self.sampler
        sampler_advance = sampler.advance
        # Only sampler_advance itself moves the threshold, so it is kept
        # in a local and re-read after each advance.
        next_sample_at = sampler._next_sample_at
        stats = self.stats
        thread_insns = stats.thread_instructions
        thread_id = thread.thread_id
        rng = thread.rng
        stack = thread.stack
        tables = self._decoder.tables
        get_table = self._decoder.table
        missing = _SENTINEL
        unset = PSTATE_UNSET
        cur_name = None
        cur_table = None

        while True:
            if machine.instructions >= max_instructions:
                return
            activation = stack[-1]
            method = activation.method
            name = method.name
            if name is not cur_name:
                cur_table = tables.get(name)
                if cur_table is None:
                    cur_table = get_table(method)
                cur_name = name
            dec = cur_table[activation.bid]
            phase = activation.phase

            if phase:
                # Resume a call block mid-sequence (after a callee
                # returned): launch the next call or run the terminator.
                if phase <= dec.n_calls:
                    activation.phase = phase + 1
                    self._invoke(thread, dec.callees[phase - 1])
                    continue
                kind = dec.term_kind
                if kind == TERM_RETURN:
                    self._return(thread)
                    if not stack:
                        thread.finished = True
                        return
                    continue
                if kind == TERM_GOTO:
                    activation.bid = dec.goto_target
                else:
                    taken = activation.loop_states.pop("__pending__")
                    activation.bid = (
                        dec.taken_target if taken else dec.fallthrough_target
                    )
                activation.phase = 0
                continue

            # Straight-line segment: same activation until a call or
            # return, so its locals are hoisted out of the tight loop.
            frame_base = activation.frame_base
            loop_states = activation.loop_states
            in_hotspot = thread.hotspot_depth
            # The instruction/cycle counters live in locals for the
            # segment and are written back ("flushed") at every exit
            # from the tight loop — before hook calls, sampler advances,
            # invokes/returns, and budget exits — so external readers
            # always observe exact values.  The accumulation *order* is
            # unchanged (same adds, same operands); only the attribute
            # stores are deferred.
            now_insns = machine.instructions
            now_cycles = machine.cycles

            while True:
                # ---- block body (reference: _execute_body) ----
                # When nothing reads the address lists (no on_block hook,
                # or a hook declaring itself count-only), the codegen'd
                # fused closure (blockjit) draws each address and updates
                # the L1D in one pass.  The decider runs *after* the
                # cache update in both branches: it only draws from the
                # RNG (after the body's draws) and never touches the
                # cache, so stream and state order match the reference
                # exactly.
                fused = dec.fused_gen if counts_only else None
                if fused is not None:
                    if dec.needs_iter:
                        iteration = dec.iter_count
                        dec.iter_count = iteration + 1
                    else:
                        iteration = 0
                    r_m, w_m, miss_lines, wb_lines = fused(
                        rng, frame_base, dec.region_base, iteration,
                        l1, missing,
                    )
                    # Hits are implied: every reference either hits or
                    # misses, so the per-block totals are static.
                    nl = dec.n_loads
                    ns = dec.n_stores
                    loads = stores = _EMPTY
                else:
                    fgen = dec.fast_gen
                    if fgen is not None:
                        if dec.needs_iter:
                            iteration = dec.iter_count
                            dec.iter_count = iteration + 1
                        else:
                            iteration = 0
                        loads, stores = fgen(
                            rng, frame_base, dec.region_base, iteration
                        )
                    else:
                        loads = stores = _EMPTY

                    # ---- L1D (reference: Cache.access_many) ----
                    line_shift = l1._line_shift
                    set_mask = l1._set_mask
                    sets = l1._sets
                    assoc = l1.associativity
                    miss_lines = []
                    wb_lines = []
                    r_h = 0
                    r_m = 0
                    for addr in loads:
                        line = addr >> line_shift
                        s = sets[line & set_mask]
                        prev = s.pop(line, missing)
                        if prev is not missing:
                            s[line] = prev
                            r_h += 1
                        else:
                            r_m += 1
                            miss_lines.append(line << line_shift)
                            if len(s) >= assoc:
                                victim = next(iter(s))
                                if s.pop(victim):
                                    wb_lines.append(victim << line_shift)
                            s[line] = False
                    w_h = 0
                    w_m = 0
                    for addr in stores:
                        line = addr >> line_shift
                        s = sets[line & set_mask]
                        if s.pop(line, missing) is not missing:
                            s[line] = True
                            w_h += 1
                        else:
                            w_m += 1
                            miss_lines.append(line << line_shift)
                            if len(s) >= assoc:
                                victim = next(iter(s))
                                if s.pop(victim):
                                    wb_lines.append(victim << line_shift)
                            s[line] = True
                    nl = r_h + r_m
                    ns = w_h + w_m

                decider = dec.decider
                if decider is not None:
                    if dec.persistent:
                        state = dec.pstate
                        if state is unset:
                            state = decider.initial_state(rng)
                        taken, dec.pstate = decider.decide(state, rng)
                    else:
                        state = loop_states.get(dec.bid, missing)
                        if state is missing:
                            state = decider.initial_state(rng)
                        taken, new_state = decider.decide(state, rng)
                        loop_states[dec.bid] = new_state
                    branch_pc = dec.branch_pc
                else:
                    taken = True
                    branch_pc = None

                # Fused closures hand back None for empty line lists
                # (lazy allocation); fills always equals the miss count.
                # A writeback implies the miss that evicted it, so
                # ``l1_misses`` alone decides the whole miss path — the
                # skipped ``+= 0`` stat updates are unobservable.
                l1_misses = r_m + w_m
                l1_stats.read_accesses += nl
                l1_stats.write_accesses += ns
                if l1_misses:
                    l1_stats.read_misses += r_m
                    l1_stats.write_misses += w_m
                    l1_stats.fills += l1_misses
                    if wb_lines:
                        l1_stats.writebacks += len(wb_lines)
                    (l2_rh, l2_rm, l2_wh, l2_wm, _l2_miss, l2_wb) = (
                        l2_access(miss_lines, wb_lines or _EMPTY)
                    )
                    l2_misses = l2_rm + l2_wm
                    hierarchy.memory_reads += l2_misses
                    hierarchy.memory_writes += len(l2_wb)
                    have_l2 = True
                else:
                    l2_misses = 0
                    have_l2 = False

                mispredicts = 0
                if branch_pc is not None:
                    index = (branch_pc >> 2) & pred_mask
                    counter = pred_table[index]
                    if taken:
                        if counter < 3:
                            pred_table[index] = counter + 1
                    elif counter > 0:
                        pred_table[index] = counter - 1
                    predictor.lookups += 1
                    if (counter >= 2) != taken:
                        predictor.mispredictions += 1
                        mispredicts = 1

                n_insns = dec.n_insns
                cycles = n_insns * cycles_per_insn / timing._ilp_factor
                if l1_misses or l2_misses:
                    overlap = 1.0 if dec.serialized else mlp
                    cycles += l1_misses * (l2_hit_latency / overlap)
                    cycles += l2_misses * (memory_latency / overlap)
                if mispredicts:
                    cycles += mispredicts * mispredict_penalty

                # Energy prices re-read per block: resizes re-bind them.
                l1e.dynamic_nj += (
                    nl * l1e._read_nj + (ns + l1_misses) * l1e._write_nj
                )
                if have_l2:
                    l2e.dynamic_nj += (
                        (l2_rh + l2_rm) * l2e._read_nj
                        + (l2_wh + l2_wm + l2_misses) * l2e._write_nj
                    )
                    energy.memory_nj += (
                        (l2_misses + len(l2_wb)) * memory_access_nj
                    )
                l1e.leakage_nj += cycles * l1e._leak_nj
                l2e.leakage_nj += cycles * l2e._leak_nj
                for component in pipeline:
                    component.energy_nj += cycles * component._nj
                now_insns += n_insns
                now_cycles += cycles

                # ---- VM bookkeeping + hooks ----
                stats.blocks_executed += 1
                thread_insns[thread_id] += n_insns
                if in_hotspot:
                    stats.instructions_in_hotspots += n_insns
                if counts_hook is not None:
                    machine.instructions = now_insns
                    machine.cycles = now_cycles
                    counts_hook(n_insns, dec.block_pc, thread_id, machine)
                    # Re-read after the hook: a reconfiguration inside
                    # the hook charges stall cycles the sampler must see.
                    now_insns = machine.instructions
                    now_cycles = machine.cycles
                elif on_block is not None:
                    machine.instructions = now_insns
                    machine.cycles = now_cycles
                    on_block(
                        BlockEvent(
                            dec.method_name,
                            dec.bid,
                            n_insns,
                            loads,
                            stores,
                            branch_pc,
                            taken,
                            dec.serialized,
                            thread_id,
                            dec.block_pc,
                        ),
                        machine,
                    )
                    now_insns = machine.instructions
                    now_cycles = machine.cycles
                if now_cycles >= next_sample_at:
                    machine.instructions = now_insns
                    machine.cycles = now_cycles
                    sampler_advance(now_cycles, dec.method_name)
                    next_sample_at = sampler._next_sample_at
                    # Hotspot detection inside the advance may charge
                    # JIT compile cycles.
                    now_cycles = machine.cycles

                if dec.n_calls:
                    # Launch the first call right here (saves one outer
                    # iteration per call); the launch micro-step is
                    # budget-gated exactly as the outer loop would.
                    # The callee's blocks run via the outer loop, which
                    # re-hoists the new activation's context.
                    machine.instructions = now_insns
                    machine.cycles = now_cycles
                    activation.bid = dec.bid
                    if decider is not None:
                        loop_states["__pending__"] = taken
                    if now_insns >= max_instructions:
                        activation.phase = 1
                        return
                    activation.phase = 2
                    self._invoke(thread, dec.callees[0])
                    break
                if now_insns >= max_instructions:
                    # The terminator micro-step is budget-gated in the
                    # reference; leave it unevaluated.
                    machine.instructions = now_insns
                    machine.cycles = now_cycles
                    activation.bid = dec.bid
                    activation.phase = 1
                    if decider is not None:
                        loop_states["__pending__"] = taken
                    return
                # The budget cannot have moved between the check above and
                # the next body (transfers retire no instructions), so the
                # tight loop continues without a second gate.
                kind = dec.term_kind
                if kind == TERM_COND:
                    dec = dec.taken_dec if taken else dec.fallthrough_dec
                elif kind == TERM_GOTO:
                    dec = dec.goto_dec
                else:  # TERM_RETURN
                    machine.instructions = now_insns
                    machine.cycles = now_cycles
                    self._return(thread)
                    if not stack:
                        thread.finished = True
                        return
                    break
