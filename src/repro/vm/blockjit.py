"""Source-level codegen for the fast kernel: one compiled runner per method.

The fast kernel (:mod:`repro.vm.fastvm`) runs every method through a
*runner* generated here: one Python function per method shape that
executes the method's blocks back to back — block bodies, the built-in
branch deciders, the bimodal predictor, the timing arithmetic and the
energy accumulation all inlined — until it reaches an *exit* (a call, a
return, the combined instruction limit, the end of the quantum, or a
per-block hook).  A runner is compiled once per shape into the
process-wide code cache below, then bound per run and per thread
(:meth:`FastVirtualMachine._bind`).

Block bodies
------------
When nothing reads a block's load/store address lists, the addresses
are generated, pushed through the L1D and discarded.  The body snippet
draws each address and applies the L1D state transition in the same
step, skipping the intermediate lists.  :func:`compile_fused_block`
wraps one body in a stand-alone closure; the property tests pin the
snippets through it.

Correctness contract (enforced by ``tests/test_kernel_equivalence.py``
and the property tests): a body must consume the RNG stream and mutate
cache state *exactly* like the readable pair
(:meth:`MemoryBehavior.generate` followed by
:meth:`~repro.uarch.cache.Cache.access_many`):

* address draws replicate CPython's ``randrange`` rejection loop
  (see ``_u4`` in :mod:`repro.workloads.patterns`) with the draws
  inlined as straight-line code — one ``getrandbits`` C call per word
  the reference consumes, in the reference's order.  (Batching the
  words into one wide ``getrandbits`` call and splitting the bigint
  was measured ~2x *slower* than the per-draw C calls — pure-Python
  word extraction costs more than it saves; see INTERNALS.md §12.)
* the draw's address arithmetic is replaced by a **draw table**: for
  the affine behaviours (stack / working-set / pointer-chase) the line
  index and the set index are pure functions of the draw ``r``, whose
  range is small (``span // WORD`` values), so the body precomputes
  ``r -> (line, set index)`` tuples once per ``(base, geometry)`` pair
  and each access costs two tuple reads instead of four big-int
  operations.  The tables hold exactly the values the reference
  arithmetic produces — bit-identity is preserved by construction, and
  geometry is part of the table key, so mid-run resizes switch tables.
* ``MixedBehavior`` fuses in two phases: phase one draws every
  component's addresses in ``generate``'s order (per component, loads
  then stores) into unrolled locals; phase two applies the cache
  transitions in ``access_many``'s order (all loads, then all stores).
  Draw order and access order differ for mixes, which is why the
  single-pass form used for flat behaviours cannot apply.
* the cache-update snippet mirrors ``Cache.access_block`` line for line:
  pop-with-default LRU touch, write-allocate, dirty-victim writeback.

The stand-alone closure returns ``(read_misses, write_misses,
miss_lines, writeback_lines)`` with the two lists lazily allocated
(``None`` when empty).  Inside a runner the misses go to two lists
shared by the run, which one miss helper drains into the L2.

The code cache
--------------
Runners and closures share one cache, keyed by a compact *shape key* —
the parameters the emitted source depends on, never the source text —
and bounded by :data:`CACHE_LIMIT` with FIFO eviction, so long-lived
processes serving many benchmarks keep about one benchmark's runners
resident.  Eviction is safe: a re-compiled shape yields identical code,
and a bound runner keeps its own code alive.  ``cache_info()`` exposes
the counters and ``publish_metrics()`` mirrors them into a
:class:`repro.obs.MetricsRegistry` (``blockjit.*`` gauges).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.program import (
    AlternatingDecider,
    LoopDecider,
    PersistentAlternatingDecider,
    RandomDecider,
)
from repro.workloads.patterns import (
    WORD,
    MixedBehavior,
    PointerChaseBehavior,
    StackBehavior,
    StridedBehavior,
    WanderingWindowBehavior,
    WorkingSetBehavior,
    _u4,
)

#: Reference counts up to this many are unrolled; above it, a loop is
#: emitted (keeps generated code — and compile time — bounded).
UNROLL_LIMIT = 16

#: Compiled shapes kept process-wide before FIFO eviction kicks in:
#: room for the runners of the largest benchmark (jack, 35 methods), so
#: a process serving one benchmark's cells compiles each runner once.
CACHE_LIMIT = 40

#: Draw-table variants kept per body (one per distinct ``(base,
#: geometry)`` pair seen at run time) before the table cache is reset.
LUT_KEY_LIMIT = 512

#: Terminator kinds of a decoded block.
TERM_RETURN = 0
TERM_GOTO = 1
TERM_COND = 2

#: Process-wide cache of compiled runner factories and fused closures,
#: keyed by shape.
_CACHE: Dict[Tuple, Callable] = {}

#: Monotonic codegen-cache telemetry (process lifetime).
CACHE_STATS = {"compiles": 0, "hits": 0, "evictions": 0}


def cache_info() -> Dict[str, int]:
    """Snapshot of the code-cache counters."""
    return dict(CACHE_STATS, size=len(_CACHE), limit=CACHE_LIMIT)


def publish_metrics(metrics) -> None:
    """Mirror :func:`cache_info` into a ``MetricsRegistry`` as gauges."""
    for name, value in cache_info().items():
        metrics.gauge(f"blockjit.cache_{name}").set(value)


def clear_cache() -> int:
    """Drop every compiled entry (tests); returns the count dropped."""
    count = len(_CACHE)
    _CACHE.clear()
    return count


def _cached(key: Tuple, build: Callable[[], Optional[Callable]]):
    """The cache entry for ``key``, compiling it with ``build`` on a miss."""
    fn = _CACHE.get(key)
    if fn is not None:
        CACHE_STATS["hits"] += 1
        return fn
    fn = build()
    if fn is None:
        return None
    if len(_CACHE) >= CACHE_LIMIT:
        del _CACHE[next(iter(_CACHE))]
        CACHE_STATS["evictions"] += 1
    _CACHE[key] = fn
    CACHE_STATS["compiles"] += 1
    return fn


def _exec(source: str, name: str, label: str, namespace: Dict[str, object]):
    exec(  # noqa: S102 - source is assembled from validated literals
        compile(source, f"<blockjit:{label}>", "exec"), namespace
    )
    return namespace[name]


def _rejection_draw(n: int, k: int, indent: str) -> str:
    """The ``randrange(0, span, WORD)`` draw: CPython's rejection loop."""
    return (
        f"{indent}r = getrandbits({k})\n"
        f"{indent}while r >= {n}:\n"
        f"{indent}    r = getrandbits({k})\n"
    )


def _flat_signature(behavior) -> Optional[Tuple]:
    """Parameter signature of one non-mixed behaviour, or ``None``."""
    if type(behavior) is StackBehavior:
        return ("stack", behavior.span)
    if type(behavior) is WorkingSetBehavior:
        return ("ws", behavior.span, behavior.locality, behavior.offset)
    if type(behavior) is PointerChaseBehavior:
        return ("pc", behavior.span, behavior.offset)
    if type(behavior) is WanderingWindowBehavior:
        return (
            "ww",
            behavior.window,
            behavior.region_span,
            behavior.drift,
        )
    if type(behavior) is StridedBehavior:
        return ("st", behavior.span, behavior.stride, behavior.offset)
    return None


def _signature(behavior) -> Optional[Tuple]:
    """Hashable parameter signature, or None if the behaviour can't fuse."""
    if type(behavior) is MixedBehavior:
        parts = []
        for component, weight in behavior.components:
            sub = _flat_signature(component)
            if sub is None:
                return None
            parts.append((sub, weight))
        return ("mixed", tuple(parts))
    return _flat_signature(behavior)


#: L1D state transition per address — textually mirrors
#: ``Cache.access_block`` (kept in lockstep by the equivalence and
#: property suites).  ``{line}``/``{s}`` name the locals holding the
#: line index and its set dict; ``{hit}``/``{miss}``/``{fill}`` are
#: filled per access type.
_ACCESS_TAIL = """\
    {probe}
        {hit}
    else:
{miss}\
        if len({s}) >= assoc:
            victim = next(iter({s}))
            if {s}.pop(victim):
                if wb_lines is None:
                    wb_lines = []
                wb_lines.append(victim << line_shift)
        {s}[{line}] = {fill}
"""

#: Miss recording in a closure: a lazily allocated list.
_CLOSURE_MISS = """\
        {counter} += 1
        if miss_lines is None:
            miss_lines = []
        miss_lines.append({line} << line_shift)
"""


#: A runner's miss: count read misses only (a block's write misses are
#: its miss lines minus its read misses) and leave the line fill — miss
#: line, LRU eviction, writeback — to the run's shared ``fill`` helper,
#: which keeps the unrolled bodies, and their compile, small.
_RUNNER_ACCESS_TAIL = """\
    {probe}
        {hit}
    else:
{miss}\
        fill({s}, {line}, {fill})
"""


def _access(line: str, s: str, is_store: bool, runner: bool) -> str:
    counter = "w_m" if is_store else "r_m"
    if runner:
        template = _RUNNER_ACCESS_TAIL
        miss = "" if is_store else "        r_m += 1\n"
    else:
        template = _ACCESS_TAIL
        miss = _CLOSURE_MISS.format(counter=counter, line=line)
    if is_store:
        # A store hit overwrites the dirty bit unconditionally, so the
        # popped value itself is dead — skip the temporary.
        return template.format(
            probe=f"if {s}.pop({line}, missing) is not missing:",
            line=line, s=s, hit=f"{s}[{line}] = True", miss=miss,
            fill="True",
        )
    return template.format(
        probe=(
            f"prev = {s}.pop({line}, missing)\n"
            f"    if prev is not missing:"
        ),
        line=line, s=s, hit=f"{s}[{line}] = prev", miss=miss,
        fill="False",
    )


def draw_table(luts: Dict, key: Tuple, n_values: int) -> Tuple:
    """Build (and keep in ``luts``) the ``r -> line`` / ``r -> set
    index`` tuples for ``key = (base, line_shift, set_mask)``."""
    base, line_shift, set_mask = key
    if len(luts) >= LUT_KEY_LIMIT:
        luts.clear()
    lines = []
    idxs = []
    for r in range(n_values):
        line = (base + r * WORD) >> line_shift
        lines.append(line)
        idxs.append(line & set_mask)
    pair = luts[key] = (tuple(lines), tuple(idxs))
    return pair


def _lut_prologue(tag: str, base_expr: str, n_values: int) -> str:
    """Draw-table lookup (see :func:`draw_table`).

    The table is keyed by everything its values depend on — the base
    address and the live cache geometry — so a mid-run resize (new
    ``set_mask``) or a different frame/region base selects a different
    table.  Entries are exactly the reference arithmetic's results,
    computed once instead of per access.
    """
    return (
        f"    base{tag} = {base_expr}\n"
        f"    _k = (base{tag}, line_shift, set_mask)\n"
        f"    _pair = _luts{tag}.get(_k)\n"
        f"    if _pair is None:\n"
        f"        _pair = draw_table(_luts{tag}, _k, {n_values})\n"
        f"    lines{tag}, idxs{tag} = _pair\n"
    )


def _draw_parts(behavior, n_loads: int, n_stores: int, tag: str, runner: bool):
    """Returns ``(prologue, load_snippet, store_snippet, uses_lut)``.

    Each snippet draws one address and leaves its cache-line index in
    ``line`` and the target set dict in ``s`` (the address itself is
    never materialised — only the line matters to the L1D).  ``tag``
    suffixes every behaviour-local name so mixed-behaviour components
    (and the blocks of one runner) can coexist.  The prologue runs once
    per body.  A runner binds ``random`` once per run; a closure
    fetches it per call.
    """
    if type(behavior) is StackBehavior:
        n, k = _u4(behavior.span)
        prologue = _lut_prologue(tag, "frame_base", n)
        snippet = _rejection_draw(n, k, "    ") + (
            f"    line = lines{tag}[r]\n"
            f"    s = sets[idxs{tag}[r]]\n"
        )
        return prologue, snippet, snippet, True
    if type(behavior) is WorkingSetBehavior:
        n_hot, k_hot = _u4(behavior._hot_span)
        n_span, k_span = _u4(behavior.span)
        prologue = _lut_prologue(
            tag, f"region_base + {behavior.offset}", n_span
        ) + ("" if runner else "    random = rng.random\n")
        snippet = (
            f"    if random() < {behavior.locality!r}:\n"
            + _rejection_draw(n_hot, k_hot, "        ")
            + "    else:\n"
            + _rejection_draw(n_span, k_span, "        ")
            + f"    line = lines{tag}[r]\n"
            + f"    s = sets[idxs{tag}[r]]\n"
        )
        return prologue, snippet, snippet, True
    if type(behavior) is PointerChaseBehavior:
        n, k = _u4(behavior.span)
        prologue = _lut_prologue(
            tag, f"region_base + {behavior.offset}", n
        )
        snippet = _rejection_draw(n, k, "    ") + (
            f"    line = lines{tag}[r]\n"
            f"    s = sets[idxs{tag}[r]]\n"
        )
        return prologue, snippet, snippet, True
    if type(behavior) is WanderingWindowBehavior:
        n, k = _u4(behavior.window)
        span = behavior.region_span
        prologue = (
            f"    position{tag} = (iteration * {behavior.drift}) % {span}\n"
        )
        snippet = _rejection_draw(n, k, "    ") + (
            "    line = (region_base"
            f" + (position{tag} + r * {WORD}) % {span}) >> line_shift\n"
            "    s = sets[line & set_mask]\n"
        )
        return prologue, snippet, snippet, False
    if type(behavior) is StridedBehavior:
        span = behavior.span
        stride = behavior.stride
        refs = n_loads + n_stores
        # generate(): addr_i = base + (start + i*stride) % span with
        # start = iteration*refs*stride; stepping off by stride modulo
        # span yields the same sequence without the per-ref multiply.
        prologue = (
            f"    base{tag} = region_base + {behavior.offset}\n"
            f"    off{tag} = (iteration * {refs * stride}) % {span}\n"
        )
        snippet = (
            f"    line = (base{tag} + off{tag}) >> line_shift\n"
            f"    off{tag} = (off{tag} + {stride}) % {span}\n"
            "    s = sets[line & set_mask]\n"
        )
        return prologue, snippet, snippet, False
    raise AssertionError(f"unfusable behaviour {behavior!r}")


def _emit_refs(draw: str, access: str, count: int) -> str:
    """Unrolled (or looped) source for ``count`` references."""
    if count == 0:
        return ""
    body = draw + access
    if count <= UNROLL_LIMIT:
        return body * count
    return f"    for _ in range({count}):\n{_indent(body, 4)}"


def _indent(source: str, spaces: int) -> str:
    pad = " " * spaces
    return "".join(
        pad + line if line.strip() else line
        for line in source.splitlines(keepends=True)
    )


def _emit_flat(behavior, n_loads: int, n_stores: int, tag: str, runner: bool):
    """Body + draw-table tags for a non-mixed behaviour."""
    prologue, load_snip, store_snip, uses_lut = _draw_parts(
        behavior, n_loads, n_stores, tag, runner
    )
    body = (
        prologue
        + _emit_refs(load_snip, _access("line", "s", False, runner), n_loads)
        + _emit_refs(store_snip, _access("line", "s", True, runner), n_stores)
    )
    return body, [tag] if uses_lut else []


def _emit_mixed(behavior, n_loads: int, n_stores: int, tag: str, runner: bool):
    """Two-phase body for ``MixedBehavior``, or ``None``.

    ``generate`` draws per component (its loads, then its stores) while
    ``access_many`` touches the cache in concatenated list order (every
    component's loads, then every component's stores) — so the draws
    land in unrolled locals first and the cache transitions replay them
    in list order.  Only fully unrollable mixes fuse; bigger blocks
    keep the list path.
    """
    if n_loads + n_stores > UNROLL_LIMIT:
        return None
    weights = [w for _, w in behavior.components]
    load_shares = MixedBehavior._apportion(n_loads, weights)
    store_shares = MixedBehavior._apportion(n_stores, weights)
    prologues = []
    luts = []
    draw_phase = []
    load_tails = []
    store_tails = []
    ref_id = 0
    for ci, (component, _) in enumerate(behavior.components):
        nl, ns = load_shares[ci], store_shares[ci]
        if nl == 0 and ns == 0:
            continue
        sub = f"{tag}_{ci}"
        prologue, load_snip, store_snip, uses_lut = _draw_parts(
            component, nl, ns, sub, runner
        )
        prologues.append(prologue)
        if uses_lut:
            luts.append(sub)
        for snip, count, tails, is_store in (
            (load_snip, nl, load_tails, False),
            (store_snip, ns, store_tails, True),
        ):
            for _ in range(count):
                line_var = f"ln{ref_id}"
                s_var = f"sd{ref_id}"
                ref_id += 1
                draw_phase.append(
                    snip.replace("    line = ", f"    {line_var} = ")
                    .replace("    s = ", f"    {s_var} = ")
                    .replace("line & set_mask", f"{line_var} & set_mask")
                )
                tails.append(_access(line_var, s_var, is_store, runner))
    body = "".join(prologues) + "".join(
        draw_phase + load_tails + store_tails
    )
    return body, luts


def _fused_body(behavior, n_loads: int, n_stores: int, tag: str, runner: bool):
    """``(source, draw-table tags)`` of one body, or ``None`` if unfusable.

    The source sits at function-body indentation (4 spaces).
    """
    if _signature(behavior) is None:
        return None
    if type(behavior) is MixedBehavior:
        return _emit_mixed(behavior, n_loads, n_stores, tag, runner)
    return _emit_flat(behavior, n_loads, n_stores, tag, runner)


def compile_fused_block(behavior, n_loads: int, n_stores: int):
    """Compile (or fetch from cache) a stand-alone fused body.

    Returns ``fused(rng, frame_base, region_base, iteration, l1,
    missing)`` or ``None`` when the behaviour has no fused form
    (custom behaviours, oversized mixes).
    """
    sig = _signature(behavior)
    if sig is None:
        return None
    key = ("fused",) + sig + (n_loads, n_stores)

    def build():
        emitted = _fused_body(behavior, n_loads, n_stores, "0", False)
        if emitted is None:
            return None
        body, luts = emitted
        params = "".join(f", _luts{tag}={{}}" for tag in luts)
        source = (
            "def fused(rng, frame_base, region_base, iteration, l1, "
            f"missing{params}):\n"
            "    getrandbits = rng.getrandbits\n"
            "    line_shift = l1._line_shift\n"
            "    set_mask = l1._set_mask\n"
            "    sets = l1._sets\n"
            "    assoc = l1.associativity\n"
            "    miss_lines = None\n"
            "    wb_lines = None\n"
            "    r_m = 0\n"
            "    w_m = 0\n"
            + body
            + "    return r_m, w_m, miss_lines, wb_lines\n"
        )
        return _exec(
            source, "fused", f"fused:{sig[0]}", {"draw_table": draw_table}
        )

    return _cached(key, build)


# ---------------------------------------------------------------------------
# Method runners
# ---------------------------------------------------------------------------

#: Parameters of a runner factory, in order.  Everything a runner reads
#: that is fixed for the (run, thread, method) it is bound to.
RUNNER_PARAMS = (
    "M",            # MachineModel: instructions, cycles
    "E1",           # L1D energy account: dynamic/leakage totals, prices
    "E2",           # L2 energy account: leakage total, price
    "PIPE",         # pipeline energy accounts, as a tuple
    "T",            # timing model: _ilp_factor
    "L1",           # L1D cache: geometry
    "L1S",          # L1D statistics: read/write accesses
    "PR",           # branch predictor: lookups, mispredictions
    "PT",           # branch predictor counter table
    "ST",           # VMStats
    "TI",           # VMStats.thread_instructions
    "TID",          # thread id
    "TH",           # ThreadContext: hotspot_depth
    "rng",          # the thread's random stream
    "getrandbits",  # rng.getrandbits
    "random",       # rng.random
    "missing",      # cache-probe sentinel
    "fill",         # fill(set, line, dirty): an L1D miss's line fill
    "ML",           # run-shared L1D miss-line list
    "MISS",         # miss(read_misses) -> L2 misses; drains the lists
    "IT",           # per-block iteration counters (this thread)
    "PS",           # per-block persistent decider states (this thread)
    "DC",           # per-block decider callables (non-inlined deciders)
    "AL",           # AL(k, frame_base, iteration): address-list body
    "AD",           # True: bodies go through AL (an on_block reads them)
    "BV",           # True: add each block to the BBV bucket list BK
    "BK",           # the BBV accumulator's bucket list
    "FF",           # fold flush(n_insns, thread_id), or None
    "region_base",  # the method's heap-region base
    "SP",           # the sampling profiler
    "NAME",         # the method's name (sampler attribution)
    "INV",          # the VM's _invoke(thread, method)
    "RET",          # the VM's _return(thread)
    "CE",           # per-block first callee (call blocks), else None
)


def decider_shape(decider) -> Optional[Tuple]:
    """Shape-key entry of a branch decider (``None``: no decider)."""
    if decider is None:
        return None
    kind = type(decider)
    if kind is LoopDecider:
        if type(decider.trips) is int:
            return ("loop", decider.trips)
        if callable(decider.trips):
            return ("loopc",)
    elif kind is AlternatingDecider:
        return ("alt", decider.period)
    elif kind is PersistentAlternatingDecider:
        return ("palt", decider.period)
    elif kind is RandomDecider:
        return ("rand", decider.p_taken)
    return ("any", bool(decider.persistent))


def _body_key(dec) -> Optional[Tuple]:
    """Shape-key entry of a block body: ``(signature, fused)``."""
    gen = dec.gen
    if gen is None:
        return None
    sig = _signature(gen)
    fused = sig is not None and not (
        type(gen) is MixedBehavior
        and dec.n_loads + dec.n_stores > UNROLL_LIMIT
    )
    return (sig, fused)


def _block_key(dec, index: Dict[str, int]) -> Tuple:
    targets = ()
    if dec.term_kind == TERM_GOTO:
        targets = (index[dec.goto_target],)
    elif dec.term_kind == TERM_COND:
        targets = (index[dec.taken_target], index[dec.fallthrough_target])
    return (
        dec.bid,
        dec.n_insns,
        _body_key(dec),
        dec.n_loads,
        dec.n_stores,
        dec.needs_iter,
        dec.serialized,
        dec.n_calls > 0,
        dec.term_kind,
        targets,
        decider_shape(dec.decider),
        dec.branch_pc,
        dec.block_pc,
    )


def compile_runner(blocks: Sequence, consts: Tuple):
    """Runner factory for a method's decoded blocks (compiled or cached).

    ``blocks`` are the method's :class:`~repro.vm.jit.DecodedBlock`
    objects in layout order; ``consts`` is ``(cycles_per_insn,
    l2_hit_latency, memory_latency, mispredict_penalty, mlp,
    predictor_mask, n_buckets, n_pipeline)``.  The factory takes the
    :data:`RUNNER_PARAMS` as keywords and returns ``run(activation,
    max_bodies, limit)``, which executes bodies from ``activation.bid``
    until an exit and returns the micro-steps it consumed.
    """
    index = {dec.bid: k for k, dec in enumerate(blocks)}
    key = ("runner", consts, tuple(_block_key(dec, index) for dec in blocks))
    return _cached(key, lambda: _build_runner(key, blocks, consts))


def _build_runner(key: Tuple, blocks: Sequence, consts: Tuple):
    source, luts = _RunnerSource(blocks, consts).render()
    namespace: Dict[str, object] = {f"_luts{tag}": {} for tag in luts}
    namespace["draw_table"] = draw_table
    namespace["B"] = tuple(dec.bid for dec in blocks)
    namespace["BIX"] = {dec.bid: k for k, dec in enumerate(blocks)}
    return _exec(source, "bind", f"runner:{blocks[0].method_name}", namespace)


class _RunnerSource:
    """Emits the source of one method's runner factory.

    Locals of ``run``: ``ni``/``cy`` (instructions, cycles), ``d1``,
    ``k1``, ``k2``, ``p<i>`` (L1D dynamic, L1D and L2 leakage, pipeline
    energy totals), ``rn``/``wn``/``kn1``/``kn2``/``pn<i>`` (their
    prices), ``ilp``, the L1D geometry, ``ra``/``wa``/``lk``/``mp``
    (L1D access and predictor counters), ``nb`` (bodies run) and ``bi``
    (current block index).  Every total keeps its per-block operands in
    the reference order; the epilogue writes them all back.
    """

    def __init__(self, blocks: Sequence, consts: Tuple):
        (
            self.cpi,
            self.l2_latency,
            self.memory_latency,
            self.penalty,
            self.mlp,
            self.pred_mask,
            self.n_buckets,
            self.n_pipe,
        ) = consts
        self.blocks = list(blocks)
        self.index = {dec.bid: k for k, dec in enumerate(self.blocks)}
        self.lines: List[str] = []
        self.luts: List[str] = []
        bodies = [_body_key(dec) for dec in self.blocks]
        self.has_mem = any(body is not None for body in bodies)
        self.has_loads = any(
            body is not None and dec.n_loads
            for dec, body in zip(self.blocks, bodies)
        )
        self.has_stores = any(
            body is not None and dec.n_stores
            for dec, body in zip(self.blocks, bodies)
        )
        self.has_cond = any(dec.decider is not None for dec in self.blocks)

    def emit(self, indent: int, *lines: str) -> None:
        pad = " " * indent
        self.lines.extend(pad + line for line in lines)

    def render(self) -> Tuple[str, List[str]]:
        params = ", ".join(RUNNER_PARAMS)
        self.emit(0, f"def bind({params}):")
        if self.n_pipe:
            names = ", ".join(f"P{i}" for i in range(self.n_pipe))
            self.emit(4, f"{names}, = PIPE")
        self.emit(4, "def run(act, nbm, lim):")
        self.prologue(8)
        self.emit(8, "while True:")
        for k, dec in enumerate(self.blocks):
            self.block(k, dec, 12)
        self.epilogue(8)
        self.emit(4, "return run")
        return "\n".join(self.lines) + "\n", self.luts

    def prologue(self, ind: int) -> None:
        e = self.emit
        e(ind, "ni = M.instructions", "ni0 = ni", "cy = M.cycles",
          "ilp = T._ilp_factor", "k1 = E1.leakage_nj", "kn1 = E1._leak_nj",
          "k2 = E2.leakage_nj", "kn2 = E2._leak_nj")
        for i in range(self.n_pipe):
            e(ind, f"p{i} = P{i}.energy_nj", f"pn{i} = P{i}._nj")
        if self.has_mem:
            e(ind, "d1 = E1.dynamic_nj", "rn = E1._read_nj",
              "wn = E1._write_nj", "sets = L1._sets",
              "set_mask = L1._set_mask", "line_shift = L1._line_shift",
              "frame_base = act.frame_base",
              "ra = 0", "wa = 0")
        if self.has_cond:
            e(ind, "ls = act.loop_states", "lk = 0", "mp = 0")
        e(ind, "nb = 0", "ex = 0")
        e(ind, "bi = BIX[act.bid]" if len(self.blocks) > 1 else "bi = 0")

    def epilogue(self, ind: int) -> None:
        e = self.emit
        e(ind, "M.instructions = ni", "M.cycles = cy",
          "E1.leakage_nj = k1", "E2.leakage_nj = k2")
        for i in range(self.n_pipe):
            e(ind, f"P{i}.energy_nj = p{i}")
        if self.has_mem:
            e(ind, "E1.dynamic_nj = d1")
            if self.has_loads:
                e(ind, "L1S.read_accesses += ra")
            if self.has_stores:
                e(ind, "L1S.write_accesses += wa")
        if self.has_cond:
            e(ind, "PR.lookups += lk", "PR.mispredictions += mp")
        e(ind, "ST.blocks_executed += nb", "seg = ni - ni0",
          "TI[TID] += seg",
          "if TH.hotspot_depth:",
          "    ST.instructions_in_hotspots += seg",
          "if FF is not None:",
          "    FF(seg, TID)",
          # A call or return no gate stops is the next micro-step: run
          # it here, after the sampler catches up with the body.  An
          # even step count tells the driver it happened.
          "if ex and ni < lim and nb < nbm:",
          "    if cy >= SP._next_sample_at:",
          "        SP.advance(cy, NAME)",
          "    if ex == 1:",
          "        act.bid = B[bi]",
          "        act.phase = 2",
          "        INV(TH, CE[bi])",
          "    else:",
          "        RET(TH)",
          "        if not TH.stack:",
          "            TH.finished = True",
          "    return nb + nb",
          "act.bid = B[bi]",
          "act.phase = 1",
          "return nb + nb - 1")

    # -- one block ---------------------------------------------------------

    def block(self, k: int, dec, ind: int) -> None:
        e = self.emit
        e(ind, f"if bi == {k}:")
        ind += 4
        targets = ()
        if dec.term_kind == TERM_GOTO:
            targets = (self.index[dec.goto_target],)
        elif dec.term_kind == TERM_COND:
            targets = (
                self.index[dec.taken_target],
                self.index[dec.fallthrough_target],
            )
        exits = dec.n_calls > 0 or dec.term_kind == TERM_RETURN
        self_loop = (
            not exits
            and dec.term_kind == TERM_COND
            and (targets[0] == k) != (targets[1] == k)
        )
        if self_loop:
            # The loop's own state — its iteration counter and decider
            # state — stays in locals while it spins.
            load, store = self.loop_state(k, dec)
            e(ind, *load)
            e(ind, "while True:")
            self.body(k, dec, ind + 4, hoisted=True)
            self.gate(dec, ind + 4, store)
            loop_if = "taken" if targets[0] == k else "not taken"
            out = targets[1] if targets[0] == k else targets[0]
            e(ind + 4, f"if {loop_if}:", "    continue", *store,
              f"bi = {out}", "break")
            e(ind, f"if bi == {k}:", "    break")
            if out <= k:
                e(ind, "continue")
            return
        self.body(k, dec, ind)
        if exits:
            if dec.decider is not None:
                e(ind, "ls['__pending__'] = taken")
            e(ind, "ex = 1" if dec.n_calls else "ex = 2", "break")
            return
        self.gate(dec, ind)
        if dec.term_kind == TERM_GOTO:
            e(ind, f"bi = {targets[0]}")
            if targets[0] <= k:
                e(ind, "continue")
            return
        for cond, target in zip(("if taken:", "else:"), targets):
            e(ind, cond, f"    bi = {target}")
            if target <= k:
                e(ind, "    continue")

    def loop_state(self, k: int, dec):
        """Lines loading and storing a self-loop's hoisted state."""
        load, store = [], []
        if dec.needs_iter:
            load.append(f"iteration = IT[{k}]")
            store.append(f"IT[{k}] = iteration")
        kind = decider_shape(dec.decider)[0]
        slot = repr(dec.bid)
        if kind in ("loop", "loopc", "alt"):
            initial = "0" if kind == "alt" else "missing"
            load.append(f"st = ls.get({slot}, {initial})")
            store.append(f"ls[{slot}] = st")
        elif kind == "palt":
            load.append(f"st = PS[{k}]")
            store.append(f"PS[{k}] = st")
        return load, store

    def gate(self, dec, ind: int, store=()) -> None:
        self.emit(ind, "if ni >= lim or nb >= nbm:")
        self.emit(ind + 4, *store)
        if dec.decider is not None:
            self.emit(ind, "    ls['__pending__'] = taken")
        self.emit(ind, "    break")

    def body(self, k: int, dec, ind: int, hoisted: bool = False) -> None:
        e = self.emit
        n_insns = dec.n_insns
        base = n_insns * self.cpi
        body_key = _body_key(dec)
        if body_key is not None:
            nl, ns = dec.n_loads, dec.n_stores
            if dec.needs_iter and not hoisted:
                e(ind, f"iteration = IT[{k}]", f"IT[{k}] = iteration + 1")
            it = "iteration" if dec.needs_iter else "0"
            call = f"AL({k}, frame_base, {it})"
            if nl:
                call = "r_m = " + call
            if body_key[1]:
                source, luts = _fused_body(dec.gen, nl, ns, str(k), True)
                self.luts.extend(luts)
                e(ind, "if AD:", f"    {call}", "else:")
                if nl:
                    e(ind + 4, "r_m = 0")
                self.lines.append(_indent(source, ind).rstrip("\n"))
            else:
                e(ind, call)
            if dec.needs_iter and hoisted:
                e(ind, "iteration += 1")
            if nl:
                e(ind, f"ra += {nl}")
            if ns:
                e(ind, f"wa += {ns}")
            overlap = 1.0 if dec.serialized else self.mlp
            e(ind, f"c = {base!r} / ilp",
              "if ML:",
              "    l1m = len(ML)",
              f"    l2m = MISS({'r_m' if nl else '0'})",
              f"    c += l1m * {self.l2_latency / overlap!r}",
              f"    c += l2m * {self.memory_latency / overlap!r}")
            if nl:
                e(ind, f"    d1 += {nl} * rn + ({ns} + l1m) * wn", "else:",
                  f"    d1 += {nl} * rn" + (f" + {ns} * wn" if ns else ""))
            else:
                e(ind, f"    d1 += ({ns} + l1m) * wn", "else:",
                  f"    d1 += {ns} * wn")
        else:
            e(ind, f"c = {base!r} / ilp")
        if dec.decider is not None:
            self.decider(k, dec, ind, hoisted)
            self.predictor(dec, ind)
        e(ind, "k1 += c * kn1", "k2 += c * kn2")
        for i in range(self.n_pipe):
            e(ind, f"p{i} += c * pn{i}")
        e(ind, f"ni += {n_insns}", "cy += c", "nb += 1")
        bucket = (dec.block_pc >> 2) % self.n_buckets
        e(ind, "if BV:", f"    BK[{bucket}] += {n_insns}")

    def decider(self, k: int, dec, ind: int, hoisted: bool) -> None:
        e = self.emit
        shape = decider_shape(dec.decider)
        kind = shape[0]
        slot = repr(dec.bid)
        if hoisted and kind in ("loop", "loopc"):
            draw = repr(shape[1]) if kind == "loop" else f"DC[{k}](rng)"
            e(ind, "if st is missing:", f"    st = {draw}", "if st > 1:",
              "    st -= 1", "    taken = True", "else:",
              f"    st = {draw}", "    taken = False")
        elif hoisted and kind in ("alt", "palt"):
            e(ind, f"taken = (st // {shape[1]}) % 2 == 0", "st += 1")
        elif kind in ("loop", "loopc"):
            draw = repr(shape[1]) if kind == "loop" else f"DC[{k}](rng)"
            e(ind, f"st = ls.get({slot}, missing)", "if st is missing:",
              f"    st = {draw}", "if st > 1:", f"    ls[{slot}] = st - 1",
              "    taken = True", "else:", f"    ls[{slot}] = {draw}",
              "    taken = False")
        elif kind == "alt":
            e(ind, f"st = ls.get({slot}, 0)",
              f"taken = (st // {shape[1]}) % 2 == 0",
              f"ls[{slot}] = st + 1")
        elif kind == "palt":
            e(ind, f"st = PS[{k}]",
              f"taken = (st // {shape[1]}) % 2 == 0",
              f"PS[{k}] = st + 1")
        elif kind == "rand":
            e(ind, f"taken = random() < {shape[1]!r}")
        elif shape[1]:
            e(ind, f"st = PS[{k}]", "if st is missing:",
              f"    st = DC[{k}].initial_state(rng)",
              f"taken, PS[{k}] = DC[{k}].decide(st, rng)")
        else:
            e(ind, f"st = ls.get({slot}, missing)", "if st is missing:",
              f"    st = DC[{k}].initial_state(rng)",
              f"taken, ls[{slot}] = DC[{k}].decide(st, rng)")

    def predictor(self, dec, ind: int) -> None:
        index = (dec.branch_pc >> 2) & self.pred_mask
        self.emit(
            ind,
            f"ctr = PT[{index}]",
            "lk += 1",
            "if taken:",
            "    if ctr < 3:",
            f"        PT[{index}] = ctr + 1",
            "        if ctr < 2:",
            "            mp += 1",
            f"            c += {self.penalty!r}",
            "elif ctr:",
            f"    PT[{index}] = ctr - 1",
            "    if ctr > 1:",
            "        mp += 1",
            f"        c += {self.penalty!r}",
        )
