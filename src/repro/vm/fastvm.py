"""Fast-path simulation kernel.

:class:`FastVirtualMachine` executes exactly the semantics of
:class:`repro.vm.vm.VirtualMachine` — same micro-step structure, same
event/callback order, same float operation order — restructured for
speed around one compiled *runner* per method (see
:mod:`repro.vm.blockjit`):

* a runner executes the method's blocks back to back with the block
  bodies, the built-in branch deciders, the branch predictor and the
  timing/energy arithmetic inlined, and per-block constants as
  literals.  A call to a hot, stub-free leaf method runs inside the
  caller's runner, with the fast paths of ``_invoke``/``_return`` on
  its locals.  Its running totals live in locals and are written back
  at every *exit*: a call it does not inline, a return, the combined
  instruction limit (the budget, a GC due, a BBV interval boundary),
  the end of the quantum, or a per-block hook;
* the driver (:meth:`FastVirtualMachine._slice`) runs everything
  between exits with the reference's micro-step bookkeeping: call
  launches, terminators after a call, GC, quanta, sampler, hooks;
* a count-only policy that declares a :class:`~repro.vm.vm.CountsFold`
  has its per-block hook kept by the runners; any other ``on_block``
  gets a per-block hook exit;
* ``_invoke``/``_return`` inline the reference's DO service chain;
* one VM may drive several *lanes* — machines and policies that run
  the same program stream (a benchmark's scheme cells): the program's
  decisions are made once, the machine-side work once per lane
  (docs/INTERNALS.md §12).  A single cell is one lane.

Bit-identity with the reference kernel is not an aspiration but a tested
contract — ``tests/test_kernel_equivalence.py`` diffs the two kernels'
``RunResult`` bundles, telemetry timelines, and pinned configurations over
the benchmark × scheme × config grid, and ``tests/test_lockstep.py``
holds every lane to its solo run.  When editing either kernel, keep
the float *operation order* identical: energy prices, ``_ilp_factor`` and
the L1D geometry change only through reconfigurations, which only run
between exits, so a runner re-reads them on every entry; the totals are
written back before anything outside the runner can read or add to them.
"""

from __future__ import annotations

from repro.obs.events import HOTSPOT_DETECTED, HOTSPOT_INVOKE, NULL_TELEMETRY
from repro.trace.events import BlockEvent
from repro.uarch.cache import TwoWayCache
from repro.vm.activation import FRAME_BYTES, Activation
from repro.vm.blockjit import decider_shape, line_touch
from repro.vm.hotspot import HotspotInfo, MethodProfile
from repro.vm.jit import TERM_GOTO, TERM_RETURN, BlockDecoder, JITCompiler
from repro.vm.sampler import SamplingProfiler
from repro.vm.vm import AdaptationHooks, VirtualMachine, _EMPTY, _SENTINEL

#: Bucket count runners are compiled for when no BBV fold is active —
#: ``BBVConfig``'s default — so every scheme shares one runner per method.
_DEFAULT_BUCKETS = 32

#: The instruction limit of a gate that never closes.
_NEVER = float("inf")


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


def _hook_plan(policy, program):
    """How the runners serve ``policy``'s per-block hook.

    Returns ``(fold, counts_hook, on_block, addresses)``: a
    :class:`~repro.vm.vm.CountsFold` the runners keep (no per-block
    exit), or the narrow or full hook a per-block exit calls, and
    whether the hook reads the address lists.  The plan depends on the
    declarations only — ``on_block_reads_addresses``, ``counts_fold``
    and instance overrides — never on the identity of hook functions.
    """
    instance = policy.__dict__
    if (
        type(policy).on_block is AdaptationHooks.on_block
        and "on_block" not in instance
    ):
        return None, None, None, False
    on_block = policy.on_block
    # A class-level hook declaring it never reads the event's address
    # lists sees a BlockEvent with empty loads/stores.  Instance
    # overrides are conservative (addresses assumed read).
    counts_only = (
        not policy.on_block_reads_addresses and "on_block" not in instance
    )
    if counts_only and "on_block_counts" not in instance:
        fold = policy.counts_fold()
        if fold is not None and _fold_exact(fold, program):
            return fold, None, None, False
    counts_hook = _counts_hook(policy, on_block, counts_only)
    if counts_hook is not None:
        return None, counts_hook, None, False
    return None, None, on_block, not counts_only


def _fold_exact(fold, program) -> bool:
    """Whether plain bucket adds reproduce the accumulator's saturating
    ones: a bucket holds at most one interval plus one block between
    two harvests, so no counter can saturate if that fits."""
    accumulator = fold.accumulator
    if accumulator is None:
        return True
    if fold.splitter is None:
        return False
    largest = max(
        block.mix.total
        for method in program.methods.values()
        for block in method.blocks.values()
    )
    return (
        fold.splitter.interval_insns - 1 + largest
        <= accumulator.counter_max
    )


def _miss_path(machine, miss_lines, wb_lines):
    """A lane's L1D-miss helper.

    ``miss(read_misses, c, d1, n_loads, n_stores, l2_cost,
    memory_cost)`` accounts one body's L1D misses (the lane's miss and
    writeback lists, in access order), sends them through the L2 and the
    memory counters exactly as the reference's ``consume`` does and
    empties the lists.  It returns the body's cycles ``c`` and the
    lane's L1D dynamic energy ``d1`` with the misses' costs added, with
    the runner's float operations: ``l2_cost`` and ``memory_cost`` are
    the latencies over the body's overlap.  The L2 takes the fills as
    reads and the writebacks as writes with ``Cache.access_many``'s
    transition, inlined: only its counts are needed, so no L2 miss or
    writeback list is built.  The L2 geometry and the prices are read
    live; they change only through reconfigurations, between runner
    exits.
    """
    hierarchy = machine.hierarchy
    l1_stats = hierarchy.l1d.stats
    l2 = hierarchy.l2
    l2_stats = l2.stats
    energy = machine.energy
    l1e = energy.l1d
    l2e = energy.l2
    memory_access_nj = energy.memory_access_nj
    missing = _SENTINEL

    def miss(read_misses, c, d1, n_loads, n_stores, l2_cost, memory_cost):
        fills = len(miss_lines)
        l1_stats.read_misses += read_misses
        l1_stats.write_misses += fills - read_misses
        l1_stats.fills += fills
        if wb_lines:
            l1_stats.writebacks += len(wb_lines)
        line_shift = l2._line_shift
        set_mask = l2._set_mask
        sets = l2._sets
        mru = l2._mru
        assoc = l2.associativity
        rh = rm = wh = wm = l2_wb = 0
        for addr in miss_lines:
            line = addr >> line_shift
            i = line & set_mask
            if mru[i] == line:
                rh += 1
                continue
            s = sets[i]
            mru[i] = line
            prev = s.pop(line, missing)
            if prev is not missing:
                s[line] = prev
                rh += 1
            else:
                rm += 1
                if len(s) >= assoc and s.pop(next(iter(s))):
                    l2_wb += 1
                s[line] = False
        for addr in wb_lines:
            line = addr >> line_shift
            i = line & set_mask
            s = sets[i]
            if mru[i] == line:
                s[line] = True
                wh += 1
                continue
            mru[i] = line
            if s.pop(line, missing) is not missing:
                wh += 1
            else:
                wm += 1
                if len(s) >= assoc and s.pop(next(iter(s))):
                    l2_wb += 1
            s[line] = True
        miss_lines.clear()
        wb_lines.clear()
        l2_misses = rm + wm
        l2_stats.read_accesses += rh + rm
        l2_stats.read_misses += rm
        l2_stats.write_accesses += wh + wm
        l2_stats.write_misses += wm
        l2_stats.writebacks += l2_wb
        l2_stats.fills += l2_misses
        hierarchy.memory_reads += l2_misses
        hierarchy.memory_writes += l2_wb
        l2e.dynamic_nj += (
            (rh + rm) * l2e._read_nj
            + (wh + wm + l2_misses) * l2e._write_nj
        )
        energy.memory_nj += (l2_misses + l2_wb) * memory_access_nj
        c += fills * l2_cost
        c += l2_misses * memory_cost
        if n_loads:
            d1 += n_loads * l1e._read_nj + (n_stores + fills) * l1e._write_nj
        else:
            d1 += (n_stores + fills) * l1e._write_nj
        return c, d1

    return miss


def _address_path(blocks, rng, region_base, l1s, touches, box):
    """``AL(k, frame_base, iteration)``: block ``k``'s body through its
    address lists.

    Draws the addresses once with ``MemoryBehavior.generate``, leaves
    them in ``box`` for the hooks' BlockEvents, and applies them to each
    lane's L1D (``l1s``, with its ``touches`` helper) like
    ``Cache.access_many`` without its statistics (the runner keeps
    those).  Returns the read misses, per lane.  Serves behaviours
    without a fused body, and every body while an ``on_block`` reads
    addresses.
    """
    lanes = tuple(zip(l1s, touches))

    def address_body(k, frame_base, iteration):
        dec = blocks[k]
        loads, stores = dec.gen.generate(
            rng, frame_base, region_base, iteration,
            dec.n_loads, dec.n_stores,
        )
        box[0] = loads
        box[1] = stores
        misses = []
        for l1, touch in lanes:
            line_shift = l1._line_shift
            set_mask = l1._set_mask
            mru = l1._mru
            read_misses = 0
            for addr in loads:
                line = addr >> line_shift
                i = line & set_mask
                if mru[i] != line:
                    read_misses += touch(i, line, False)
            for addr in stores:
                line = addr >> line_shift
                i = line & set_mask
                if mru[i] == line:
                    l1._dm[i] = 1
                else:
                    touch(i, line, True)
            misses.append(read_misses)
        return misses

    return address_body


def _lane_shape(machine) -> tuple:
    """What the lanes of one run must share: the runner constants and
    the L1D line size."""
    return machine.timing.hot_constants() + (
        machine.predictor._mask,
        len(machine.energy.pipeline),
        machine.hierarchy.l1d.line_size,
    )


class LaneView:
    """The VM as the policy of a lane after the first sees it.

    Lane 0's view is the VM itself.  A later lane's view carries that
    lane's ``machine``, ``policy``, ``telemetry``, ``sampler`` and
    ``jit`` — a :class:`~repro.vm.jit.JITCompiler` whose compile levels
    are the shared ones and whose entry/exit stubs are the lane's own —
    and reads everything else (threads, the DO database, stats, config)
    from the shared core.
    """

    def __init__(self, core, machine, policy, telemetry):
        self.core = core
        self.machine = machine
        self.policy = policy or AdaptationHooks()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        machine.telemetry = self.telemetry
        self.sampler = SamplingProfiler(core.config.sample_period_cycles)
        self.jit = JITCompiler(core.jit.top_level)
        self.jit.levels = core.jit.levels
        self.jit.compile_log = core.jit.compile_log

    def __getattr__(self, name):
        return getattr(self.core, name)


class _Lane:
    """One lane's state as the kernel reads it: its view, machine,
    policy, sampler, telemetry and JIT stubs, how its per-block hook is
    served, its L1D miss helpers and its BBV interval gate."""

    __slots__ = (
        "view", "machine", "policy", "sampler", "telemetry",
        "entry_stubs", "exit_stubs", "l1i", "fold", "counts_hook",
        "on_block", "addresses", "splitter", "miss_lines", "wb_lines",
        "miss", "touch", "bbv_at", "bbv_synced",
    )

    def __init__(self, view, program):
        self.view = view
        machine = self.machine = view.machine
        self.policy = view.policy
        self.sampler = view.sampler
        self.telemetry = view.telemetry
        self.entry_stubs = view.jit.entry_stubs
        self.exit_stubs = view.jit.exit_stubs
        self.l1i = machine.hierarchy.l1i
        (
            self.fold,
            self.counts_hook,
            self.on_block,
            self.addresses,
        ) = _hook_plan(self.policy, program)
        self.splitter = (
            self.fold.splitter if self.fold is not None else None
        )
        self.miss_lines = []
        self.wb_lines = []
        self.miss = _miss_path(machine, self.miss_lines, self.wb_lines)
        self.touch = line_touch(
            machine.hierarchy.l1d, self.miss_lines, self.wb_lines
        )
        self.bbv_at = _NEVER
        self.bbv_synced = 0


class FastVirtualMachine(VirtualMachine):
    """Drop-in replacement for :class:`VirtualMachine`, ~3-5x faster.

    ``lanes`` adds further ``(machine, policy, telemetry)`` lanes to
    the one the positional arguments give: every lane runs the same
    program stream, each on its own machine under its own policy
    (docs/INTERNALS.md §12).  The lanes' machines must share one
    configuration; they take lane 0's branch predictor, whose state is
    a function of the shared branch stream.  At most one lane's policy
    may install JIT stubs, which own ``Activation.policy_token``, and at
    most one may fold BBV buckets.  Every lane's L1D must be a 2-way
    :class:`~repro.uarch.cache.TwoWayCache`, the paper's L1D (Table 2),
    whose rank arrays the runners update.
    """

    def __init__(self, *args, lanes=(), **kwargs):
        super().__init__(*args, **kwargs)
        machine = self.machine
        program = self.program
        for l1d in [machine.hierarchy.l1d] + [
            lane[0].hierarchy.l1d for lane in lanes
        ]:
            if not isinstance(l1d, TwoWayCache):
                raise ValueError(
                    "the fast kernel needs a 2-way L1D (a TwoWayCache); "
                    f"this machine's L1D is a {type(l1d).__name__} with "
                    f"associativity {l1d.associativity}"
                )
        views = [self]
        for lane_machine, lane_policy, lane_telemetry in lanes:
            if _lane_shape(lane_machine) != _lane_shape(machine):
                raise ValueError(
                    "lanes must share one machine configuration"
                )
            lane_machine.predictor = machine.predictor
            view = LaneView(self, lane_machine, lane_policy, lane_telemetry)
            # As VirtualMachine.__init__ does for lane 0.
            view.policy.attach(view)
            for name, info in self.database.hotspots.items():
                if name in program.methods:
                    view.policy.on_hotspot_detected(info, view)
            views.append(view)
        self._lanes = [_Lane(view, program) for view in views]
        self._machines = tuple(lane.machine for lane in self._lanes)
        self._per_block = any(
            lane.counts_hook is not None or lane.on_block is not None
            for lane in self._lanes
        )
        self._addresses = any(lane.addresses for lane in self._lanes)
        accumulators = [
            lane.fold.accumulator
            for lane in self._lanes
            if lane.fold is not None and lane.fold.accumulator is not None
        ]
        if len(accumulators) > 1:
            raise ValueError("at most one lane may fold BBV buckets")
        #: The folded BBV accumulator, if a lane has one.
        self._accumulator = accumulators[0] if accumulators else None
        self._decoder = BlockDecoder(
            program,
            machine.timing.hot_constants()
            + (
                machine.predictor._mask,
                self._accumulator.n_buckets
                if self._accumulator is not None
                else _DEFAULT_BUCKETS,
                len(machine.energy.pipeline),
            ),
            self.config.gc_method,
            len(self._lanes),
        )
        self._address_box = [_EMPTY, _EMPTY]
        #: Bound runners, per thread: method name -> ``run``.
        self._bound = [{} for _ in self.threads]
        #: Per-method state, per thread: method name -> ``(IT, PS, DC,
        #: AL, region base)``, shared by the method's runner and every
        #: runner that inlines it.
        self._states = [{} for _ in self.threads]
        config = self.config
        self._gc_period = (
            config.gc_period_instructions
            if config.gc_method and config.gc_period_instructions > 0
            else 0
        )
        self._max = 0
        self._limit = 0
        self._bbv_at = _NEVER
        # Stable per-run containers, pre-bound to shave attribute chains
        # off the _invoke/_return hot paths.  All are mutated in place
        # and never reassigned by the reference implementation.
        self._levels = self.jit.levels
        self._entry_stubs = self.jit.entry_stubs
        self._exit_stubs = self.jit.exit_stubs
        self._profiles = self.database._profiles
        self._hotspots = self.database.hotspots
        self._fetch = tuple(
            (lane.l1i, lane.machine) for lane in self._lanes
        )
        self._stubs = tuple(
            (lane.entry_stubs, lane.exit_stubs, lane.telemetry, lane.view)
            for lane in self._lanes
        )
        self._samplers = tuple(
            (lane.machine, lane.sampler) for lane in self._lanes
        )

    def _charge_cycles(self, cycles: float) -> None:
        """Charge VM-service time (JIT compiles) to every lane's clock."""
        if cycles and self.config.charge_compile_cycles:
            for machine in self._machines:
                machine.cycles += cycles
                machine.energy.add_cycles(cycles)

    def _invoke(self, thread, method) -> None:
        """Reference ``_invoke`` with its service chain inlined.

        The common case — method already baseline-compiled, not newly
        hot, code resident in the L1I, not a hotspot — runs without any
        sub-calls.  Rare branches replicate the reference verbatim
        (promotion mirrors ``HotspotDetector.on_invocation``; an L1I miss
        falls back to ``machine.on_method_entry``, whose hit path is only
        the LRU refresh performed inline here).  The machine-side steps
        run on every lane, in lane order.
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
            for lane in self._lanes:
                telemetry = lane.telemetry
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
                lane.policy.on_hotspot_detected(newly_hot, lane.view)
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
        for l1i, lane_machine in self._fetch:
            resident = l1i._resident
            if name in resident:
                l1i.method_switches += 1
                resident[name] = resident.pop(name)
            else:
                lane_machine.on_method_entry(name, method.code_footprint)
        info = hotspots.get(name)
        if info is not None:
            activation.is_hotspot = True
            thread.hotspot_depth += 1
            for entry_stubs, _, _, view in self._stubs:
                stub = entry_stubs.get(name)
                if stub is not None:
                    stub.fn(info, activation, view)

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
            for _, exit_stubs, telemetry, view in self._stubs:
                stub = exit_stubs.get(name)
                if stub is not None:
                    stub.fn(info, activation, view)
                if telemetry.enabled and inclusive > 0:
                    telemetry.emit(
                        HOTSPOT_INVOKE,
                        ts=activation.entry_instructions,
                        track=f"hotspot:{name}",
                        dur=inclusive,
                    )
        if self._gc_active and name == self.config.gc_method:
            self._gc_active -= 1

    def _state(self, thread, method):
        """``method``'s per-thread state: per-block iteration counters,
        persistent decider states and decider callables, its
        address-list body and its region base."""
        states = self._states[thread.thread_id]
        state = states.get(method.name)
        if state is None:
            decoder = self._decoder
            blocks = tuple(decoder.table(method).values())
            region = method.region
            region_base = region.base if region is not None else 0
            shapes = [decider_shape(dec.decider) for dec in blocks]
            state = states[method.name] = (
                [0] * len(blocks),
                [
                    0 if shape is not None and shape[0] == "palt"
                    else _SENTINEL
                    for shape in shapes
                ],
                tuple(
                    dec.decider._draw
                    if shape is not None and shape[0] == "loopc"
                    else dec.decider
                    for dec, shape in zip(blocks, shapes)
                ),
                _address_path(
                    blocks, thread.rng, region_base,
                    [m.hierarchy.l1d for m in self._machines],
                    [lane.touch for lane in self._lanes],
                    self._address_box,
                ),
                region_base,
            )
        return state

    def _bind(self, thread, method):
        """Bind ``method``'s runner to this run and ``thread``."""
        decoder = self._decoder
        blocks = tuple(decoder.table(method).values())
        iterations, persistent, deciders, address_path, region_base = (
            self._state(thread, method)
        )
        lanes = self._lanes
        machines = self._machines
        l1s = tuple(m.hierarchy.l1d for m in machines)
        l1is = tuple(m.hierarchy.l1i for m in machines)
        folds = tuple(lane.fold for lane in lanes)
        accumulator = self._accumulator
        predictor = self.machine.predictor
        stats = self.stats
        rng = thread.rng
        run = decoder.runners[method.name](
            M=machines,
            E1=tuple(m.energy.l1d for m in machines),
            E2=tuple(m.energy.l2 for m in machines),
            PIPE=tuple(tuple(m.energy.pipeline.values()) for m in machines),
            T=tuple(m.timing for m in machines),
            L1=l1s,
            L1S=tuple(l1.stats for l1 in l1s),
            PR=predictor,
            PT=predictor._table,
            ST=stats,
            TI=stats.thread_instructions,
            TID=thread.thread_id,
            TH=thread,
            TS=thread.stack,
            SB=thread.stack_base,
            rng=rng,
            getrandbits=rng.getrandbits,
            random=rng.random,
            missing=_SENTINEL,
            touch=tuple(lane.touch for lane in lanes),
            ML=tuple(lane.miss_lines for lane in lanes),
            MISS=tuple(lane.miss for lane in lanes),
            IT=iterations,
            PS=persistent,
            DC=deciders,
            AL=address_path,
            AD=self._addresses,
            BV=accumulator is not None,
            BK=accumulator._buckets if accumulator is not None else None,
            FF=tuple(fold.flush if fold is not None else None
                     for fold in folds),
            region_base=region_base,
            SP=tuple(lane.sampler for lane in lanes),
            NAME=method.name,
            INV=self._invoke,
            RET=self._return,
            CE=tuple(
                dec.callees[0] if dec.n_calls else None for dec in blocks
            ),
            IN=not any(lane.telemetry.enabled for lane in lanes),
            IL=tuple(
                (callee, callee.name) + self._state(thread, callee)
                for callee in decoder.sites[method.name]
            ),
            PF=self._profiles,
            HS=self._hotspots,
            LV=self._levels,
            ENS=tuple(lane.entry_stubs for lane in lanes),
            EXS=tuple(lane.exit_stubs for lane in lanes),
            IC=l1is,
            RES=tuple(l1i._resident for l1i in l1is),
        )
        self._bound[thread.thread_id][method.name] = run
        return run

    def run(self, max_instructions: int) -> None:
        """Run until ``max_instructions`` retire or all threads finish."""
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        machine = self.machine
        threads = self.threads
        for thread in threads:
            self._invoke(thread, self.program.methods[thread.entry_method])
        self._max = max_instructions
        for lane in self._lanes:
            splitter = lane.splitter
            if splitter is not None:
                lane.bbv_synced = machine.instructions
                lane.bbv_at = (
                    machine.instructions
                    + splitter.interval_insns
                    - splitter.instructions_in_current
                )
        self._bbv_at = min(lane.bbv_at for lane in self._lanes)
        self._limit = min(max_instructions, self._bbv_at)
        quantum = self.config.quantum_blocks
        while machine.instructions < max_instructions:
            alive = False
            for thread in threads:
                if thread.finished:
                    continue
                alive = True
                self._slice(thread, quantum)
                if machine.instructions >= max_instructions:
                    break
            if not alive:
                break
        for lane in self._lanes:
            splitter = lane.splitter
            if splitter is not None:
                splitter.advance(machine.instructions - lane.bbv_synced)
                lane.bbv_synced = machine.instructions
            lane.policy.on_run_end(lane.view)

    def _slice(self, thread, steps) -> None:
        """Run one thread for up to ``steps`` micro-steps.

        Block bodies (and the terminators between them, and inlined
        leaf calls) run inside the method runners; everything else — GC,
        call launches, the terminator after a runner exit, returns —
        runs here, gated like the reference's micro-steps.  A runner
        exits right after a body, before the terminator it would leave
        to the quantum's last step, or between steps after an inlined
        return.
        """
        machine = self.machine
        stack = thread.stack
        bound = self._bound[thread.thread_id]
        tables = self._decoder.tables
        samplers = self._samplers
        max_instructions = self._max
        gc_period = self._gc_period
        per_block = self._per_block
        while steps > 0:
            if thread.finished or machine.instructions >= max_instructions:
                return
            if (
                gc_period
                and not self._gc_active
                and machine.instructions - self._gc_last >= gc_period
            ):
                self._maybe_gc(thread)
            activation = stack[-1]
            method = activation.method
            phase = activation.phase
            if phase:
                dec = tables[method.name][activation.bid]
                steps -= 1
                if phase <= dec.n_calls:
                    activation.phase = phase + 1
                    self._invoke(thread, dec.callees[phase - 1])
                    continue
                if dec.term_kind == TERM_RETURN:
                    self._return(thread)
                    if not stack:
                        thread.finished = True
                    continue
                if dec.term_kind == TERM_GOTO:
                    activation.bid = dec.goto_target
                elif activation.loop_states.pop("__pending__"):
                    activation.bid = dec.taken_target
                else:
                    activation.bid = dec.fallthrough_target
                activation.phase = 0
                # A terminator retires nothing and moves no gate, so
                # the next body follows without another check.
                if not steps:
                    return
            run = bound.get(method.name)
            if run is None:
                run = self._bind(thread, method)
            limit = self._limit
            if gc_period and not self._gc_active:
                due = self._gc_last + gc_period
                if due < limit:
                    limit = due
            used = run(activation, 1 if per_block else steps, limit)
            steps -= used >> 1
            if not used & 1:
                # The runner's last step was not a body: a call launch
                # or return after it, or an inlined call's return.
                continue
            # After the body, as in the reference's _execute_body: the
            # policies' per-block work, then the samplers.  The body may
            # have been an inlined callee's, now on top of the stack.
            if machine.instructions >= self._bbv_at:
                self._bbv_boundary()
            if per_block:
                self._per_block_hook(thread, activation)
            for lane_machine, sampler in samplers:
                cycles = lane_machine.cycles
                if cycles >= sampler._next_sample_at:
                    sampler.advance(cycles, stack[-1].method.name)

    def _bbv_boundary(self) -> None:
        """Advance each folded interval splitter whose boundary the last
        block crossed to now; fires the boundary (or boundaries)."""
        now = self.machine.instructions
        for lane in self._lanes:
            if lane.bbv_at <= now:
                splitter = lane.splitter
                splitter.advance(now - lane.bbv_synced)
                lane.bbv_synced = now
                lane.bbv_at = (
                    now
                    + splitter.interval_insns
                    - splitter.instructions_in_current
                )
        self._bbv_at = min(lane.bbv_at for lane in self._lanes)
        self._limit = min(self._max, self._bbv_at)

    def _per_block_hook(self, thread, activation) -> None:
        """The per-block hook exit: the hooks the runner's body owes,
        lane by lane."""
        dec = self._decoder.tables[activation.method.name][activation.bid]
        for lane in self._lanes:
            if lane.counts_hook is not None:
                lane.counts_hook(
                    dec.n_insns, dec.block_pc, thread.thread_id, lane.machine
                )
                continue
            if lane.on_block is None:
                continue
            if dec.decider is not None:
                taken = activation.loop_states["__pending__"]
                branch_pc = dec.branch_pc
            else:
                taken = True
                branch_pc = None
            if lane.addresses and dec.gen is not None:
                loads, stores = self._address_box
            else:
                loads = stores = _EMPTY
            lane.on_block(
                BlockEvent(
                    dec.method_name,
                    dec.bid,
                    dec.n_insns,
                    loads,
                    stores,
                    branch_pc,
                    taken,
                    dec.serialized,
                    thread.thread_id,
                    dec.block_pc,
                ),
                lane.machine,
            )
