"""Source-level codegen for the fast kernel: one compiled runner per method.

The fast kernel (:mod:`repro.vm.fastvm`) runs every method through a
*runner* generated here: one Python function per method shape that
executes the method's blocks back to back — block bodies, the built-in
branch deciders, the bimodal predictor, the timing arithmetic, the
energy accumulation and calls to plain leaf methods all inlined — until
it reaches an *exit* (a call it does not inline, a return, the combined
instruction limit, the end of the quantum, or a per-block hook).  A
runner is compiled once per shape into the process-wide code cache
below, then bound per run and per thread
(:meth:`FastVirtualMachine._bind`).

Block bodies
------------
When nothing reads a block's load/store address lists, the addresses
are generated, pushed through the L1D and discarded.  The body snippet
draws each address and applies the L1D state transition in the same
step, skipping the intermediate lists: a hit on the set's MRU line
inline, anything else through the lane's ``touch`` helper.
:func:`compile_fused_block` wraps one body in a stand-alone closure;
the property tests pin the snippets through it.

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
  index is a pure function of the draw ``r``, whose range is small
  (``span // WORD`` values), so the bodies share ``r -> line`` tuples
  built once per ``(base, line size, range)`` and each access costs a
  tuple read instead of four big-int operations.  The tables hold
  exactly the values the reference arithmetic produces — bit-identity
  is preserved by construction.  The set index is ``line & set_mask``,
  taken per lane from the live geometry, so a mid-run resize and the
  lanes' different sizes all read one table.
* ``MixedBehavior`` fuses in two phases: phase one draws every
  component's addresses in ``generate``'s order (per component, loads
  then stores) into unrolled locals; phase two applies the cache
  transitions in ``access_many``'s order (all loads, then all stores).
  Draw order and access order differ for mixes, which is why the
  single-pass form used for flat behaviours cannot apply.
* the cache-update snippet and its ``touch`` helper make
  ``TwoWayCache.access_many``'s transition — the MRU check, the rank
  swap of an LRU hit, write-allocate, dirty-victim writeback — on the
  L1D's rank arrays (:class:`~repro.uarch.cache.TwoWayCache`).

The stand-alone closure runs the same body with its own miss lists and
returns ``(read_misses, write_misses, miss_lines, writeback_lines)``
(``None`` for an empty list).  Inside a runner the misses go to two
lists per lane, which the lane's miss helper drains into its L2.

Lanes
-----
A runner drives one or more *lanes* (docs/INTERNALS.md §12): machines
that run the same program stream.  Everything the program decides —
address draws, branch outcomes, the predictor, instruction counts,
iteration and decider state — is computed once; each drawn line is then
applied to every lane's L1D with that lane's ``set_mask``, and each
lane keeps its own cycle, energy and miss locals (suffix ``_<lane>``).
The lane count is part of the shape key; a single cell is one lane.

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

Below it, :func:`_exec` keeps the compiled code on disk, in
:data:`DISK_CACHE_DIR`: one ``marshal`` entry per (source text, code
label, interpreter magic number, ``sys.flags.optimize``).  The key is
the source itself, so an entry is never stale and deleting the
directory is always safe; a later process loads the code instead of
compiling it again.  An unreadable entry compiles as if it were absent,
and a failed write is skipped.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import sys
import tempfile
import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.program import (
    AlternatingDecider,
    LoopDecider,
    PersistentAlternatingDecider,
    RandomDecider,
)
from repro.vm.activation import FRAME_BYTES, Activation
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

#: Draw tables kept process-wide (one per distinct base, geometry and
#: draw range seen at run time) before the table cache is reset; a run
#: of one benchmark uses about 60.
LUT_KEY_LIMIT = 256

#: Terminator kinds of a decoded block.
TERM_RETURN = 0
TERM_GOTO = 1
TERM_COND = 2

#: Process-wide cache of compiled runner factories and fused closures,
#: keyed by shape.
_CACHE: Dict[Tuple, Callable] = {}

#: Process-wide draw tables (see :func:`draw_table`), shared by every
#: body that draws from the same range.
_LUTS: Dict[Tuple, Tuple] = {}

#: Monotonic codegen-cache telemetry (process lifetime): ``compiles``
#: counts calls to ``compile()``, ``hits`` in-process cache hits,
#: ``loads`` code read from the disk cache and ``writes`` entries
#: written to it.
CACHE_STATS = {
    "compiles": 0, "hits": 0, "evictions": 0, "loads": 0, "writes": 0,
}


def _disk_cache_dir() -> Optional[str]:
    """``blockjit-<cache_tag>/`` in the directory that holds this
    module's bytecode (the ``__pycache__`` next to it, or its mirror
    under ``sys.pycache_prefix``); ``None`` when the interpreter has no
    bytecode cache."""
    tag = sys.implementation.cache_tag
    if tag is None:
        return None
    pyc = importlib.util.cache_from_source(__file__)
    return os.path.join(os.path.dirname(pyc), f"blockjit-{tag}")


#: Directory of the on-disk code cache (``None`` turns it off).  It is
#: the simulator's own JIT cache, not import bytecode, so
#: ``PYTHONDONTWRITEBYTECODE`` does not apply to it.
DISK_CACHE_DIR: Optional[str] = _disk_cache_dir()

#: Header of every disk entry: entries another interpreter wrote are
#: recompiled.
_MAGIC = importlib.util.MAGIC_NUMBER

#: What besides the label and the source an entry's code depends on.
_KEY_PREFIX = _MAGIC + (
    f"{sys.implementation.cache_tag}\0{sys.flags.optimize}\0".encode()
)


def cache_info() -> Dict[str, int]:
    """Snapshot of the code-cache counters."""
    return dict(CACHE_STATS, size=len(_CACHE), limit=CACHE_LIMIT)


def publish_metrics(metrics) -> None:
    """Mirror :func:`cache_info` into a ``MetricsRegistry`` as gauges."""
    for name, value in cache_info().items():
        metrics.gauge(f"blockjit.cache_{name}").set(value)


def clear_cache() -> int:
    """Drop every compiled entry and draw table of this process (tests;
    the disk cache stays); returns the count of compiled entries
    dropped."""
    count = len(_CACHE)
    _CACHE.clear()
    _LUTS.clear()
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
    return fn


def _exec(source: str, name: str, label: str, namespace: Dict[str, object]):
    exec(  # noqa: S102 - source is assembled from validated literals
        _code(source, f"<blockjit:{label}>"), namespace
    )
    return namespace[name]


def _code(source: str, filename: str):
    """The code of ``source``: loaded from the disk cache, or compiled
    and written there."""
    directory = DISK_CACHE_DIR
    if directory is None:
        CACHE_STATS["compiles"] += 1
        return compile(source, filename, "exec")
    digest = hashlib.sha256(
        _KEY_PREFIX + filename.encode() + b"\0" + source.encode()
    ).hexdigest()
    path = os.path.join(directory, digest)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if data.startswith(_MAGIC):
            code = marshal.loads(data[len(_MAGIC):])
            if type(code) is types.CodeType:
                CACHE_STATS["loads"] += 1
                return code
    except (OSError, EOFError, ValueError, TypeError):
        pass
    CACHE_STATS["compiles"] += 1
    code = compile(source, filename, "exec")
    # Atomic commit, as in the result store: concurrent writers of one
    # key each replace a complete entry, and no reader sees a partial one.
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return code
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC + marshal.dumps(code))
        os.replace(tmp_name, path)
        CACHE_STATS["writes"] += 1
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
    return code


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


#: L1D state transition per address and lane, as
#: ``TwoWayCache.access_many`` makes it (kept in lockstep by the
#: equivalence and property suites).  ``{line}`` names the local holding
#: the line index, ``{j}`` the lane.  A hit on the set's MRU line
#: (``mru_{j}[line & sm_{j}]``) does nothing more, and a store there only
#: sets its dirty flag (``dm_{j}``); anything else goes to the lane's
#: ``touch`` helper (:func:`line_touch`), which keeps the unrolled
#: bodies, their compile and their code small.  ``touch`` returns 1 on
#: a miss: a body counts read misses only (its write misses are its miss
#: lines minus its read misses).
_LOAD = """\
    if mru_{j}[{line} & sm_{j}] != {line}:
        r_m_{j} += touch_{j}({line} & sm_{j}, {line}, False)
"""

_STORE = """\
    i = {line} & sm_{j}
    if mru_{j}[i] == {line}:
        dm_{j}[i] = 1
    else:
        touch_{j}(i, {line}, True)
"""


def _access(line: str, is_store: bool, lanes: int) -> str:
    """The access of the line in ``line`` on every lane, in lane order."""
    snippet = _STORE if is_store else _LOAD
    return "".join(snippet.format(line=line, j=j) for j in range(lanes))


def line_touch(l1, miss_lines: List[int], wb_lines: List[int]):
    """``touch(index, line, store)``: an access of a
    :class:`~repro.uarch.cache.TwoWayCache` that missed its set's MRU
    line, as ``access_many`` does it — on a hit of the LRU line the two
    ranks swap (a store sets the dirty bit); on a miss record the miss
    line, evict the LRU line (recording its writeback when dirty),
    demote the MRU line and make the line the MRU line.  Returns 1 on a
    miss, else 0.  Reads the live arrays and geometry, so one helper
    serves every runner of a run.
    """
    miss_append = miss_lines.append
    wb_append = wb_lines.append

    def touch(i, line, store):
        mru = l1._mru
        lru = l1._lru
        dm = l1._dm
        dl = l1._dl
        if lru[i] == line:
            lru[i] = mru[i]
            mru[i] = line
            dirty = dl[i]
            dl[i] = dm[i]
            dm[i] = store or dirty
            return 0
        if dl[i]:
            wb_append(lru[i] << l1._line_shift)
        lru[i] = mru[i]
        dl[i] = dm[i]
        mru[i] = line
        dm[i] = store
        miss_append(line << l1._line_shift)
        return 1

    return touch


def draw_table(key: Tuple) -> Tuple:
    """Build (and keep process-wide) the ``r -> line`` tuple for
    ``key = (base, line_shift, n_values)``."""
    base, line_shift, n_values = key
    if len(_LUTS) >= LUT_KEY_LIMIT:
        _LUTS.clear()
    lines = _LUTS[key] = tuple(
        (base + r * WORD) >> line_shift for r in range(n_values)
    )
    return lines


def _lut_prologue(tag: str, base_expr: str, n_values: int) -> str:
    """Draw-table lookup (see :func:`draw_table`).

    The table is keyed by everything its values depend on — the base
    address, the line size and the draw range — so a different
    frame/region base selects a different table, and bodies drawing
    from the same range share one.  Entries are exactly the reference
    arithmetic's results, computed once instead of per access.  The set
    index is not in the table: it depends on each lane's live geometry.
    """
    return (
        f"    _k = ({base_expr}, line_shift, {n_values})\n"
        f"    lines{tag} = LUTS.get(_k)\n"
        f"    if lines{tag} is None:\n"
        f"        lines{tag} = draw_table(_k)\n"
    )


def _draw_parts(behavior, n_loads: int, n_stores: int, tag: str, runner: bool,
                fb: str = "frame_base", rb: str = "region_base"):
    """Returns ``(prologue, load_snippet, store_snippet)``.

    Each snippet draws one address and leaves its cache-line index in
    ``line`` (the address itself is never materialised — only the line
    matters to the L1D).  ``tag`` suffixes every behaviour-local name so
    mixed-behaviour components (and the blocks of one runner) can
    coexist; ``fb``/``rb`` name the frame and region bases.  The
    prologue runs once per body.  A runner binds ``random`` once per
    run; a closure fetches it per call.
    """
    if type(behavior) is StackBehavior:
        n, k = _u4(behavior.span)
        prologue = _lut_prologue(tag, fb, n)
        snippet = _rejection_draw(n, k, "    ") + f"    line = lines{tag}[r]\n"
        return prologue, snippet, snippet
    if type(behavior) is WorkingSetBehavior:
        n_hot, k_hot = _u4(behavior._hot_span)
        n_span, k_span = _u4(behavior.span)
        prologue = _lut_prologue(
            tag, f"{rb} + {behavior.offset}", n_span
        ) + ("" if runner else "    random = rng.random\n")
        snippet = (
            f"    if random() < {behavior.locality!r}:\n"
            + _rejection_draw(n_hot, k_hot, "        ")
            + "    else:\n"
            + _rejection_draw(n_span, k_span, "        ")
            + f"    line = lines{tag}[r]\n"
        )
        return prologue, snippet, snippet
    if type(behavior) is PointerChaseBehavior:
        n, k = _u4(behavior.span)
        prologue = _lut_prologue(tag, f"{rb} + {behavior.offset}", n)
        snippet = _rejection_draw(n, k, "    ") + f"    line = lines{tag}[r]\n"
        return prologue, snippet, snippet
    if type(behavior) is WanderingWindowBehavior:
        n, k = _u4(behavior.window)
        span = behavior.region_span
        prologue = (
            f"    position{tag} = (iteration * {behavior.drift}) % {span}\n"
        )
        snippet = _rejection_draw(n, k, "    ") + (
            f"    line = ({rb}"
            f" + (position{tag} + r * {WORD}) % {span}) >> line_shift\n"
        )
        return prologue, snippet, snippet
    if type(behavior) is StridedBehavior:
        span = behavior.span
        stride = behavior.stride
        refs = n_loads + n_stores
        # generate(): addr_i = base + (start + i*stride) % span with
        # start = iteration*refs*stride; stepping off by stride modulo
        # span yields the same sequence without the per-ref multiply.
        prologue = (
            f"    base{tag} = {rb} + {behavior.offset}\n"
            f"    off{tag} = (iteration * {refs * stride}) % {span}\n"
        )
        snippet = (
            f"    line = (base{tag} + off{tag}) >> line_shift\n"
            f"    off{tag} = (off{tag} + {stride}) % {span}\n"
        )
        return prologue, snippet, snippet
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


def _emit_flat(behavior, n_loads: int, n_stores: int, tag: str, runner: bool,
               bases: Tuple[str, str], lanes: int):
    """Body for a non-mixed behaviour."""
    prologue, load_snip, store_snip = _draw_parts(
        behavior, n_loads, n_stores, tag, runner, *bases
    )
    return (
        prologue
        + _emit_refs(load_snip, _access("line", False, lanes), n_loads)
        + _emit_refs(store_snip, _access("line", True, lanes), n_stores)
    )


def _emit_mixed(behavior, n_loads: int, n_stores: int, tag: str, runner: bool,
                bases: Tuple[str, str], lanes: int):
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
    draw_phase = []
    load_tails = []
    store_tails = []
    ref_id = 0
    for ci, (component, _) in enumerate(behavior.components):
        nl, ns = load_shares[ci], store_shares[ci]
        if nl == 0 and ns == 0:
            continue
        sub = f"{tag}_{ci}"
        prologue, load_snip, store_snip = _draw_parts(
            component, nl, ns, sub, runner, *bases
        )
        prologues.append(prologue)
        for snip, count, tails, is_store in (
            (load_snip, nl, load_tails, False),
            (store_snip, ns, store_tails, True),
        ):
            for _ in range(count):
                line_var = f"ln{ref_id}"
                ref_id += 1
                draw_phase.append(
                    snip.replace("    line = ", f"    {line_var} = ")
                )
                tails.append(_access(line_var, is_store, lanes))
    return "".join(prologues) + "".join(
        draw_phase + load_tails + store_tails
    )


def _fused_body(behavior, n_loads: int, n_stores: int, tag: str, runner: bool,
               bases: Tuple[str, str] = ("frame_base", "region_base"),
               lanes: int = 1):
    """Source of one body, or ``None`` if unfusable.

    The source sits at function-body indentation (4 spaces); ``bases``
    names the frame and region bases it reads; each access is applied
    to ``lanes`` lanes.
    """
    if _signature(behavior) is None:
        return None
    if type(behavior) is MixedBehavior:
        return _emit_mixed(
            behavior, n_loads, n_stores, tag, runner, bases, lanes
        )
    return _emit_flat(behavior, n_loads, n_stores, tag, runner, bases, lanes)


def compile_fused_block(behavior, n_loads: int, n_stores: int):
    """Compile (or fetch from cache) a stand-alone fused body.

    Returns ``fused(rng, frame_base, region_base, iteration, l1)`` or
    ``None`` when the behaviour has no fused form (custom behaviours,
    oversized mixes).  ``fused`` runs the body a one-lane runner would
    and returns ``(read_misses, write_misses, miss_lines,
    writeback_lines)``, an empty list as ``None``.
    """
    sig = _signature(behavior)
    if sig is None:
        return None
    key = ("fused",) + sig + (n_loads, n_stores)

    def build():
        body = _fused_body(behavior, n_loads, n_stores, "0", False)
        if body is None:
            return None
        source = (
            "def fused(rng, frame_base, region_base, iteration, l1):\n"
            "    getrandbits = rng.getrandbits\n"
            "    line_shift = l1._line_shift\n"
            "    sm_0 = l1._set_mask\n"
            "    mru_0 = l1._mru\n"
            "    dm_0 = l1._dm\n"
            "    miss_lines = []\n"
            "    wb_lines = []\n"
            "    touch_0 = line_touch(l1, miss_lines, wb_lines)\n"
            "    r_m_0 = 0\n"
            + body
            + "    return (r_m_0, len(miss_lines) - r_m_0,\n"
            "            miss_lines or None,\n"
            "            wb_lines or None)\n"
        )
        return _exec(
            source, "fused", f"fused:{sig[0]}",
            {
                "draw_table": draw_table,
                "LUTS": _LUTS,
                "line_touch": line_touch,
            },
        )

    return _cached(key, build)


# ---------------------------------------------------------------------------
# Method runners
# ---------------------------------------------------------------------------

#: Parameters of a runner factory, in order.  Everything a runner reads
#: that is fixed for the (run, thread, method) it is bound to.  The
#: :data:`LANE_PARAMS` among them are tuples with one entry per lane.
RUNNER_PARAMS = (
    "M",            # MachineModel: instructions, cycles
    "E1",           # L1D energy account: dynamic/leakage totals, prices
    "E2",           # L2 energy account: leakage total, price
    "PIPE",         # pipeline energy accounts, as a tuple
    "T",            # timing model: _ilp_factor
    "L1",           # L1D cache (a TwoWayCache): geometry, rank arrays
    "L1S",          # L1D statistics: read/write accesses
    "PR",           # the branch predictor the lanes share: lookups,
                    # mispredictions
    "PT",           # its counter table
    "ST",           # VMStats
    "TI",           # VMStats.thread_instructions
    "TID",          # thread id
    "TH",           # ThreadContext: hotspot_depth
    "TS",           # the thread's activation stack
    "SB",           # the thread's stack base
    "rng",          # the thread's random stream
    "getrandbits",  # rng.getrandbits
    "random",       # rng.random
    "missing",      # decider-state sentinel
    "touch",        # touch(index, line, store): an L1D access past the
                    # MRU check; 1 on a miss
    "ML",           # L1D miss-line list
    "MISS",         # miss(read_misses, c, d1, ...) -> (c, d1): accounts
                    # a body's L1D misses; drains the lists
    "IT",           # per-block iteration counters (this thread)
    "PS",           # per-block persistent decider states (this thread)
    "DC",           # per-block decider callables (non-inlined deciders)
    "AL",           # AL(k, frame_base, iteration): address-list body;
                    # returns the read misses per lane
    "AD",           # True: bodies go through AL (an on_block reads them)
    "BV",           # True: add each block to the BBV bucket list BK
    "BK",           # the BBV accumulator's bucket list (at most one
                    # lane keeps one)
    "FF",           # fold flush(n_insns, thread_id), or None
    "region_base",  # the method's heap-region base
    "SP",           # the sampling profiler
    "NAME",         # the method's name (sampler attribution)
    "INV",          # the VM's _invoke(thread, method)
    "RET",          # the VM's _return(thread)
    "CE",           # per-block first callee (call blocks), else None
    "IN",           # True: inlined calls may take their fast path
    "IL",           # per inlined call: (method, name, IT, PS, DC, AL,
                    # region base) of the callee
    "PF",           # DO database: method profiles by name
    "HS",           # DO database: hotspots by name
    "LV",           # JIT: compiled methods by name
    "ENS",          # JIT: entry stubs by name
    "EXS",          # JIT: exit stubs by name
    "IC",           # the L1I model: method_switches
    "RES",          # the L1I model's resident methods, in LRU order
)

#: The per-lane runner parameters: one entry per lane, in lane order.
LANE_PARAMS = frozenset((
    "M", "E1", "E2", "PIPE", "T", "L1", "L1S", "touch", "ML", "MISS",
    "FF", "SP", "ENS", "EXS", "IC", "RES",
))


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
        dec.n_calls,
        dec.term_kind,
        targets,
        decider_shape(dec.decider),
        dec.branch_pc,
        dec.block_pc,
    )


def _method_key(blocks: Sequence) -> Tuple:
    index = {dec.bid: k for k, dec in enumerate(blocks)}
    return tuple(_block_key(dec, index) for dec in blocks)


def compile_runner(blocks: Sequence, consts: Tuple, sites: Sequence = (),
                   lanes: int = 1):
    """Runner factory for a method's decoded blocks (compiled or cached).

    ``blocks`` are the method's :class:`~repro.vm.jit.DecodedBlock`
    objects in layout order; ``consts`` is ``(cycles_per_insn,
    l2_hit_latency, memory_latency, mispredict_penalty, mlp,
    predictor_mask, n_buckets, n_pipeline)``.  ``sites`` lists the
    calls to inline, in block and call order, as ``(block index, call
    number, callee blocks, callee entry index)``; a block's inlined
    calls are a prefix of its calls.  ``lanes`` is the number of
    machines the runner drives.  The factory takes the
    :data:`RUNNER_PARAMS` as keywords (the :data:`LANE_PARAMS` as
    ``lanes``-tuples) and returns ``run(activation, max_steps, limit)``,
    which executes bodies from ``activation.bid`` until an exit and
    returns twice the micro-steps it consumed, plus one when its last
    step was a body.
    """
    key = (
        "runner",
        lanes,
        consts,
        _method_key(blocks),
        tuple(
            (k, q, entry, _method_key(callee))
            for k, q, callee, entry in sites
        ),
    )
    return _cached(
        key, lambda: _build_runner(blocks, consts, sites, lanes)
    )


def _build_runner(blocks: Sequence, consts: Tuple, sites: Sequence,
                  lanes: int):
    emitter = _RunnerSource(blocks, consts, sites, lanes)
    namespace = {
        "draw_table": draw_table,
        "LUTS": _LUTS,
        "Activation": Activation,
        "B": tuple(
            dec.bid for frame in emitter.frames for dec in frame.blocks
        ),
        "BIX": {dec.bid: k for k, dec in enumerate(blocks)},
    }
    return _exec(
        emitter.render(), "bind", f"runner:{blocks[0].method_name}",
        namespace,
    )


def _no_miss(n_loads: int, n_stores: int, j: int) -> str:
    """Lane ``j``'s L1D dynamic energy for a body none of whose accesses
    miss."""
    if not n_loads:
        return f"{n_stores} * wn_{j}"
    return f"{n_loads} * rn_{j}" + (
        f" + {n_stores} * wn_{j}" if n_stores else ""
    )


class _Frame:
    """One method's blocks in a runner: their numbers in the runner's
    block numbering (``off`` onward) and the names of their state.

    The runner's own method is frame ``None``; inlined call ``j`` gets a
    copy of its callee's blocks whose state names carry the suffix
    ``j``, bound to the callee's per-thread state.
    """

    def __init__(self, blocks: Sequence, off: int, site: Optional[int]):
        self.blocks = list(blocks)
        self.index = {dec.bid: k for k, dec in enumerate(self.blocks)}
        self.off = off
        self.site = site
        sfx = "" if site is None else str(site)
        self.it, self.ps, self.dc, self.al = (
            f"IT{sfx}", f"PS{sfx}", f"DC{sfx}", f"AL{sfx}"
        )
        self.ls = f"ls{sfx}"
        self.fb = "frame_base" if site is None else f"fb{sfx}"
        self.rb = "region_base" if site is None else f"rb{sfx}"
        self.tag = "" if site is None else f"i{sfx}_"
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

    def targets(self, dec) -> Tuple[int, ...]:
        """Runner block numbers of ``dec``'s successors."""
        if dec.term_kind == TERM_GOTO:
            return (self.off + self.index[dec.goto_target],)
        if dec.term_kind == TERM_COND:
            return (
                self.off + self.index[dec.taken_target],
                self.off + self.index[dec.fallthrough_target],
            )
        return ()


class _RunnerSource:
    """Emits the source of one method's runner factory.

    Shared locals of ``run``: ``ni`` (instructions), the line shift,
    ``ra``/``wa``/``lk``/``mp`` (L1D access and predictor counters, the
    same for every lane), ``nb`` (bodies run), ``nbm`` (bodies the step
    budget allows) and ``bi`` (current block number).  Per lane ``j``:
    ``cy_j`` (cycles), ``d1_j``, ``k1_j``, ``k2_j``, ``p<i>_j`` (L1D
    dynamic, L1D and L2 leakage, pipeline energy totals),
    ``rn_j``/``wn_j``/``kn1_j``/``kn2_j``/``pn<i>_j`` (their prices),
    ``ilp_j``, the L1D set mask, sets and MRU record, ``c_j`` (the
    body's cycles) and ``r_m_j`` (its read misses).  Every total keeps
    its per-block operands in the reference order; the epilogue writes
    them all back.

    A runner with inlined calls also keeps ``ca`` (the activation on
    top of the stack), ``cx`` (steps beyond two per body: each inlined
    call adds one), ``s1`` (the step budget plus one), ``hs`` (where
    hotspot coverage was last credited) and, while a callee runs, its
    profile ``pf``, hotspot ``hi`` and entry count ``en``.
    """

    def __init__(self, blocks: Sequence, consts: Tuple, sites: Sequence,
                 lanes: int = 1):
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
        self.lanes = range(lanes)
        self.root = _Frame(blocks, 0, None)
        self.frames = [self.root]
        #: Inlined call ``j``: (caller block index, call number, callee
        #: entry index, callee frame).
        self.sites = []
        #: Caller block index -> its inlined calls ``j``, in call order.
        self.calls: Dict[int, List[int]] = {}
        off = len(blocks)
        for j, (k, q, callee, entry) in enumerate(sites):
            frame = _Frame(callee, off, j)
            off += len(frame.blocks)
            self.frames.append(frame)
            self.sites.append((k, q, entry, frame))
            self.calls.setdefault(k, []).append(j)
        self.inlines = bool(self.sites)
        self.has_mem = any(f.has_mem for f in self.frames)
        self.has_loads = any(f.has_loads for f in self.frames)
        self.has_stores = any(f.has_stores for f in self.frames)
        self.has_cond = any(f.has_cond for f in self.frames)
        self.lines: List[str] = []

    def emit(self, indent: int, *lines: str) -> None:
        pad = " " * indent
        self.lines.extend(pad + line for line in lines)

    def per_lane(self, *templates: str) -> List[str]:
        """``templates`` with ``{j}`` filled in for every lane, lane by
        lane."""
        return [t.format(j=j) for j in self.lanes for t in templates]

    def render(self) -> str:
        params = ", ".join(RUNNER_PARAMS)
        self.emit(0, f"def bind({params}):")
        for name in RUNNER_PARAMS:
            if name in LANE_PARAMS and name != "PIPE":
                names = "".join(f"{name}_{j}, " for j in self.lanes)
                self.emit(4, f"{names}= {name}")
        if self.n_pipe:
            for j in self.lanes:
                names = "".join(f"P{i}_{j}, " for i in range(self.n_pipe))
                self.emit(4, f"{names}= PIPE[{j}]")
        for j in range(len(self.sites)):
            self.emit(4, f"MT{j}, N{j}, IT{j}, PS{j}, DC{j}, AL{j}, rb{j} = "
                         f"IL[{j}]")
        self.emit(4, "def run(act, sm, lim):")
        self.prologue(8)
        self.emit(8, "while True:")
        for frame in self.frames:
            for k, dec in enumerate(frame.blocks):
                self.block(frame, k, dec, 12)
        self.epilogue(8)
        self.emit(4, "return run")
        return "\n".join(self.lines) + "\n"

    def prologue(self, ind: int) -> None:
        e = self.emit
        e(ind, "ni = M_0.instructions", "ni0 = ni")
        e(ind, *self.per_lane(
            "cy_{j} = M_{j}.cycles", "ilp_{j} = T_{j}._ilp_factor",
            "k1_{j} = E1_{j}.leakage_nj", "kn1_{j} = E1_{j}._leak_nj",
            "k2_{j} = E2_{j}.leakage_nj", "kn2_{j} = E2_{j}._leak_nj",
        ))
        for i in range(self.n_pipe):
            e(ind, *self.per_lane(
                f"p{i}_{{j}} = P{i}_{{j}}.energy_nj",
                f"pn{i}_{{j}} = P{i}_{{j}}._nj",
            ))
        if self.has_mem:
            e(ind, "line_shift = L1_0._line_shift", "ra = 0", "wa = 0")
            e(ind, *self.per_lane(
                "d1_{j} = E1_{j}.dynamic_nj", "rn_{j} = E1_{j}._read_nj",
                "wn_{j} = E1_{j}._write_nj", "mru_{j} = L1_{j}._mru",
                "dm_{j} = L1_{j}._dm", "sm_{j} = L1_{j}._set_mask",
            ))
        if self.root.has_mem:
            e(ind, "frame_base = act.frame_base")
        if self.root.has_cond:
            e(ind, "ls = act.loop_states")
        if self.has_cond:
            e(ind, "lk = 0", "mp = 0")
        e(ind, "nb = 0", "nbm = (sm + 1) >> 1", "ex = 0")
        if self.inlines:
            e(ind, "s1 = sm + 1", "cx = 0", "hs = ni", "ca = act")
        e(ind, "bi = BIX[act.bid]" if len(self.root.blocks) > 1 else "bi = 0")

    def sample(self, ind: int, name: str) -> None:
        """Every lane's sampler catches up with its cycles."""
        self.emit(ind, *self.per_lane(
            "if cy_{j} >= SP_{j}._next_sample_at:",
            f"    SP_{{j}}.advance(cy_{{j}}, {name})",
        ))

    def epilogue(self, ind: int) -> None:
        e = self.emit
        e(ind, *self.per_lane(
            "M_{j}.instructions = ni", "M_{j}.cycles = cy_{j}",
            "E1_{j}.leakage_nj = k1_{j}", "E2_{j}.leakage_nj = k2_{j}",
        ))
        for i in range(self.n_pipe):
            e(ind, *self.per_lane(f"P{i}_{{j}}.energy_nj = p{i}_{{j}}"))
        if self.has_mem:
            e(ind, *self.per_lane("E1_{j}.dynamic_nj = d1_{j}"))
            if self.has_loads:
                e(ind, *self.per_lane("L1S_{j}.read_accesses += ra"))
            if self.has_stores:
                e(ind, *self.per_lane("L1S_{j}.write_accesses += wa"))
        if self.has_cond:
            e(ind, "PR.lookups += lk", "PR.mispredictions += mp")
        steps = "nb + nb + cx" if self.inlines else "nb + nb"
        e(ind, "ST.blocks_executed += nb", "seg = ni - ni0",
          "TI[TID] += seg",
          "if TH.hotspot_depth:",
          "    ST.instructions_in_hotspots += "
          + ("ni - hs" if self.inlines else "seg"))
        e(ind, *self.per_lane(
            "if FF_{j} is not None:", "    FF_{j}(seg, TID)"
        ))
        if self.inlines:
            # Stopped between steps: at a caller's next call or next
            # block, after an inlined return.
            e(ind, "if ex == 3:", "    ca.bid = B[bi]", "    ca.phase = ph",
              f"    return ({steps}) << 1")
        # A call or return no gate stops is the next micro-step: run it
        # here, after the samplers catch up with the body.  An even
        # result tells the driver it happened.
        e(ind, "if ex and ni < lim and nb < nbm:")
        self.sample(ind + 4, "NAME")
        e(ind, "    if ex == 1:",
          "        act.bid = B[bi]",
          "        act.phase = 2",
          "        INV(TH, CE[bi])",
          "    else:",
          "        RET(TH)",
          "        if not TH.stack:",
          "            TH.finished = True",
          f"    return ({steps}) << 1")
        top = "ca" if self.inlines else "act"
        e(ind, f"{top}.bid = B[bi]", f"{top}.phase = 1",
          f"return (({steps}) << 1) - 1")

    # -- one block ---------------------------------------------------------

    def block(self, frame: _Frame, k: int, dec, ind: int) -> None:
        e = self.emit
        n = frame.off + k
        e(ind, f"if bi == {n}:")
        ind += 4
        targets = frame.targets(dec)
        exits = dec.n_calls > 0 or dec.term_kind == TERM_RETURN
        self_loop = (
            not exits
            and dec.term_kind == TERM_COND
            and (targets[0] == n) != (targets[1] == n)
        )
        if self_loop:
            # The loop's own state — its iteration counter and decider
            # state — stays in locals while it spins.
            load, store = self.loop_state(frame, k, dec)
            e(ind, *load)
            e(ind, "while True:")
            self.body(frame, k, dec, ind + 4, hoisted=True)
            self.gate(frame, dec, ind + 4, store)
            loop_if = "taken" if targets[0] == n else "not taken"
            out = targets[1] if targets[0] == n else targets[0]
            e(ind + 4, f"if {loop_if}:", "    continue", *store,
              f"bi = {out}", "break")
            e(ind, f"if bi == {n}:", "    break")
            if out <= n:
                e(ind, "continue")
            return
        self.body(frame, k, dec, ind)
        if frame.site is not None and dec.term_kind == TERM_RETURN:
            self.gate(frame, dec, ind)
            self.inline_return(frame.site, n, ind)
            return
        if exits:
            if dec.decider is not None:
                e(ind, f"{frame.ls}['__pending__'] = taken")
            if k in self.calls and frame.site is None:
                self.gate(frame, None, ind)
                self.launch(self.calls[k][0], n, ind)
                return
            e(ind, "ex = 1" if dec.n_calls else "ex = 2", "break")
            return
        self.gate(frame, dec, ind)
        self.jump(targets, n, ind)

    def jump(self, targets: Tuple[int, ...], n: int, ind: int,
             taken: str = "taken") -> None:
        """A terminator from block number ``n``: a goto or a branch on
        ``taken``."""
        e = self.emit
        if len(targets) == 1:
            e(ind, f"bi = {targets[0]}")
            if targets[0] <= n:
                e(ind, "continue")
            return
        for cond, target in zip((f"if {taken}:", "else:"), targets):
            e(ind, cond, f"    bi = {target}")
            if target <= n:
                e(ind, "    continue")

    # -- inlined calls -----------------------------------------------------

    def launch(self, j: int, n: int, ind: int) -> None:
        """Call ``j``, after its caller's body (first call) or its
        previous call's return: the fast path of ``_invoke`` on the
        runner's locals, or the way out to the driver's.

        The fast path needs a callee that is compiled, already hot (so
        no detection can fire), L1I-resident and stub-free on every
        lane, and room in the step budget for the launch and the
        callee's first body.
        """
        e = self.emit
        k, q, entry, frame = self.sites[j]
        name = f"N{j}"
        e(ind, f"pf = PF.get({name})")
        if q == 1:
            # The caller's gate just passed: room for launch and body.
            cond = "IN and pf is not None"
        else:
            cond = "nb < (s1 - cx - 1) >> 1 and pf is not None"
        lanes = "".join(
            f" and {name} in RES_{l} and {name} not in ENS_{l} and "
            f"{name} not in EXS_{l}"
            for l in self.lanes
        )
        e(ind, f"if {cond} and pf.is_hot and {name} in LV{lanes}:")
        ind += 4
        if q == 1:
            self.sample(ind, "NAME")
        else:
            e(ind, "cx += 1", "nbm = (s1 - cx) >> 1")
        callee_entry = frame.blocks[entry]
        e(ind, "pf.invocations += 1", f"hi = HS[{name}]",
          "hi.invocations_since_hot += 1",
          "ca = Activation.__new__(Activation)",
          f"ca.method = MT{j}",
          f"ca.bid = {callee_entry.bid!r}",
          "ca.phase = 0",
          f"ca.frame_base = {frame.fb} = SB - len(TS) * {FRAME_BYTES}",
          f"ca.loop_states = {frame.ls} = {{}}",
          "ca.entry_instructions = en = ni",
          "ca.entry_cycles = cy_0",
          "ca.is_hotspot = True",
          "ca.policy_token = None",
          "TS.append(ca)")
        e(ind, *self.per_lane(
            "IC_{j}.method_switches += 1",
            f"RES_{{j}}[{name}] = RES_{{j}}.pop({name})",
        ))
        e(ind, "if TH.hotspot_depth:",
          "    ST.instructions_in_hotspots += ni - hs",
          "hs = ni",
          "TH.hotspot_depth += 1",
          f"act.bid = {self.root.blocks[k].bid!r}",
          f"act.phase = {q + 1}")
        target = frame.off + entry
        e(ind, f"bi = {target}")
        if target <= n:
            e(ind, "continue")
        ind -= 4
        if q == 1:
            e(ind, "else:", "    ex = 1", "    break")
        else:
            # Stop between steps: the driver launches call q.
            e(ind, "else:", f"    bi = {k}", f"    ph = {q}", "    ex = 3",
              "    break")

    def inline_return(self, j: int, n: int, ind: int) -> None:
        """The return of inlined call ``j`` from block number ``n`` (its
        gate passed): the fast path of ``_return`` on the runner's
        locals, then the caller's next call or its terminator."""
        e = self.emit
        k, q, _, _ = self.sites[j]
        self.sample(ind, f"N{j}")
        e(ind, "TS.pop()",
          "inc = ni - en",
          "cn = pf.completed_invocations + 1",
          "pf.completed_invocations = cn",
          "if cn == 1:",
          "    pf.mean_size = float(inc)",
          "else:",
          "    pf.mean_size += pf.ALPHA * (inc - pf.mean_size)",
          "ST.instructions_in_hotspots += ni - hs",
          "hs = ni",
          "TH.hotspot_depth -= 1",
          "hi.instructions_inside += inc",
          "ca = act")
        caller = self.root.blocks[k]
        if j != self.calls[k][-1]:
            self.launch(j + 1, n, ind)
            return
        if q < caller.n_calls:
            # The next call is not inlined: the driver launches it.
            e(ind, f"bi = {k}", f"ph = {q + 1}", "ex = 3", "break")
            return
        # The caller's terminator is one more step; stop before the
        # next body if the step budget is spent.
        e(ind, "cx += 1", "nbm = (s1 - cx) >> 1")
        targets = self.root.targets(caller)
        if len(targets) == 2:
            e(ind, "if ls.pop('__pending__'):", f"    bi = {targets[0]}",
              "else:", f"    bi = {targets[1]}")
        else:
            e(ind, f"bi = {targets[0]}")
        e(ind, "if nb >= nbm:", "    ph = 0", "    ex = 3", "    break",
          "continue")

    # -- block parts ---------------------------------------------------------

    def loop_state(self, frame: _Frame, k: int, dec):
        """Lines loading and storing a self-loop's hoisted state.

        The load also computes the body's loop invariants once per lane:
        its base cycles and its no-miss L1D energy, with the float
        operations the body would run.
        """
        base = dec.n_insns * self.cpi
        load = self.per_lane(f"hc_{{j}} = {base!r} / ilp_{{j}}")
        if _body_key(dec) is not None:
            load += [
                f"hd_{j} = {_no_miss(dec.n_loads, dec.n_stores, j)}"
                for j in self.lanes
            ]
        store = []
        if dec.needs_iter:
            load.append(f"iteration = {frame.it}[{k}]")
            store.append(f"{frame.it}[{k}] = iteration")
        kind = decider_shape(dec.decider)[0]
        slot = repr(dec.bid)
        if kind in ("loop", "loopc", "alt"):
            initial = "0" if kind == "alt" else "missing"
            load.append(f"st = {frame.ls}.get({slot}, {initial})")
            store.append(f"{frame.ls}[{slot}] = st")
        elif kind == "palt":
            load.append(f"st = {frame.ps}[{k}]")
            store.append(f"{frame.ps}[{k}] = st")
        return load, store

    def gate(self, frame: _Frame, dec, ind: int, store=()) -> None:
        self.emit(ind, "if ni >= lim or nb >= nbm:")
        self.emit(ind + 4, *store)
        if dec is not None and dec.decider is not None:
            self.emit(ind, f"    {frame.ls}['__pending__'] = taken")
        self.emit(ind, "    break")

    def body(self, frame: _Frame, k: int, dec, ind: int,
             hoisted: bool = False) -> None:
        e = self.emit
        n_insns = dec.n_insns
        base = n_insns * self.cpi
        body_key = _body_key(dec)
        cycles = (
            "c_{j} = hc_{j}" if hoisted else f"c_{{j}} = {base!r} / ilp_{{j}}"
        )
        if body_key is not None:
            nl, ns = dec.n_loads, dec.n_stores
            if dec.needs_iter and not hoisted:
                e(ind, f"iteration = {frame.it}[{k}]",
                  f"{frame.it}[{k}] = iteration + 1")
            it = "iteration" if dec.needs_iter else "0"
            call = f"{frame.al}({k}, {frame.fb}, {it})"
            if nl:
                call = "".join(f"r_m_{j}, " for j in self.lanes) + "= " + call
            if body_key[1]:
                source = _fused_body(
                    dec.gen, nl, ns, f"{frame.tag}{k}", True,
                    (frame.fb, frame.rb), len(self.lanes),
                )
                e(ind, "if AD:", f"    {call}", "else:")
                if nl:
                    e(ind + 4, *self.per_lane("r_m_{j} = 0"))
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
            costs = (
                f"{nl}, {ns}, {self.l2_latency / overlap!r}, "
                f"{self.memory_latency / overlap!r}"
            )
            for j in self.lanes:
                read_misses = f"r_m_{j}" if nl else "0"
                e(ind, cycles.format(j=j),
                  f"if ML_{j}:",
                  f"    c_{j}, d1_{j} = MISS_{j}({read_misses}, c_{j}, d1_{j},"
                  f" {costs})",
                  "else:",
                  f"    d1_{j} += hd_{j}" if hoisted
                  else f"    d1_{j} += {_no_miss(nl, ns, j)}")
        else:
            e(ind, *self.per_lane(cycles))
        if dec.decider is not None:
            self.decider(frame, k, dec, ind, hoisted)
            self.predictor(dec, ind)
        e(ind, *self.per_lane("k1_{j} += c_{j} * kn1_{j}",
                              "k2_{j} += c_{j} * kn2_{j}"))
        for i in range(self.n_pipe):
            e(ind, *self.per_lane(f"p{i}_{{j}} += c_{{j}} * pn{i}_{{j}}"))
        e(ind, f"ni += {n_insns}", *self.per_lane("cy_{j} += c_{j}"),
          "nb += 1")
        bucket = (dec.block_pc >> 2) % self.n_buckets
        e(ind, "if BV:", f"    BK[{bucket}] += {n_insns}")

    def decider(self, frame: _Frame, k: int, dec, ind: int,
                hoisted: bool) -> None:
        e = self.emit
        shape = decider_shape(dec.decider)
        kind = shape[0]
        slot = repr(dec.bid)
        ls, ps, dc = frame.ls, frame.ps, frame.dc
        if hoisted and kind in ("loop", "loopc"):
            draw = repr(shape[1]) if kind == "loop" else f"{dc}[{k}](rng)"
            e(ind, "if st is missing:", f"    st = {draw}", "if st > 1:",
              "    st -= 1", "    taken = True", "else:",
              f"    st = {draw}", "    taken = False")
        elif hoisted and kind in ("alt", "palt"):
            e(ind, f"taken = (st // {shape[1]}) % 2 == 0", "st += 1")
        elif kind in ("loop", "loopc"):
            draw = repr(shape[1]) if kind == "loop" else f"{dc}[{k}](rng)"
            e(ind, f"st = {ls}.get({slot}, missing)", "if st is missing:",
              f"    st = {draw}", "if st > 1:", f"    {ls}[{slot}] = st - 1",
              "    taken = True", "else:", f"    {ls}[{slot}] = {draw}",
              "    taken = False")
        elif kind == "alt":
            e(ind, f"st = {ls}.get({slot}, 0)",
              f"taken = (st // {shape[1]}) % 2 == 0",
              f"{ls}[{slot}] = st + 1")
        elif kind == "palt":
            e(ind, f"st = {ps}[{k}]",
              f"taken = (st // {shape[1]}) % 2 == 0",
              f"{ps}[{k}] = st + 1")
        elif kind == "rand":
            e(ind, f"taken = random() < {shape[1]!r}")
        elif shape[1]:
            e(ind, f"st = {ps}[{k}]", "if st is missing:",
              f"    st = {dc}[{k}].initial_state(rng)",
              f"taken, {ps}[{k}] = {dc}[{k}].decide(st, rng)")
        else:
            e(ind, f"st = {ls}.get({slot}, missing)", "if st is missing:",
              f"    st = {dc}[{k}].initial_state(rng)",
              f"taken, {ls}[{slot}] = {dc}[{k}].decide(st, rng)")

    def predictor(self, dec, ind: int) -> None:
        """The shared predictor's lookup and update; a misprediction
        costs every lane the penalty."""
        index = (dec.branch_pc >> 2) & self.pred_mask
        penalty = self.per_lane(f"c_{{j}} += {self.penalty!r}")
        self.emit(
            ind,
            f"ctr = PT[{index}]",
            "lk += 1",
            "if taken:",
            "    if ctr < 3:",
            f"        PT[{index}] = ctr + 1",
            "        if ctr < 2:",
            "            mp += 1",
            *("            " + line for line in penalty),
            "elif ctr:",
            f"    PT[{index}] = ctr - 1",
            "    if ctr > 1:",
            "        mp += 1",
            *("        " + line for line in penalty),
        )
