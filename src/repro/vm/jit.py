"""JIT compiler model (paper §4.2).

Jikes RVM is compile-only: every method is baseline-compiled on first
invocation, and hotspots are recompiled at the highest optimisation level
(the paper restricts itself to one level to avoid multiple hotspot
versions).  The reproduction charges compile time (cycles) proportional to
method size, and models the *instrumentation patching* the framework relies
on: the compiler can attach/replace entry and exit stubs on a compiled
method — the tuning/profiling/configuration/sampling code of Figure 2 —
which the VM invokes on every subsequent entry/exit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.program import CondBranch, Goto, Method, Program
from repro.vm.blockjit import TERM_COND, TERM_GOTO, TERM_RETURN, compile_runner
from repro.vm.blockjit import compile_fused_block  # noqa: F401 - re-exported


class OptimizationLevel(enum.IntEnum):
    """Compilation levels, mirroring Jikes' baseline + O0..O2."""

    BASELINE = 0
    O0 = 1
    O1 = 2
    O2 = 3


@dataclass(frozen=True)
class CompileEvent:
    """One compilation, for logs and overhead accounting."""

    method: str
    level: OptimizationLevel
    at_instructions: int
    cost_cycles: float


#: Relative compile cost per static instruction at each level; the optimizing
#: levels are much slower than the baseline compiler, as in Jikes.
_COST_PER_INSN = {
    OptimizationLevel.BASELINE: 2.0,
    OptimizationLevel.O0: 10.0,
    OptimizationLevel.O1: 25.0,
    OptimizationLevel.O2: 60.0,
}

#: Speedup of code compiled at each level relative to baseline code.
#: Applied as a divisor on block cycles for optimised methods.
_CODE_QUALITY = {
    OptimizationLevel.BASELINE: 1.0,
    OptimizationLevel.O0: 1.15,
    OptimizationLevel.O1: 1.25,
    OptimizationLevel.O2: 1.30,
}


class EntryStub:
    """An instrumentation stub the JIT installs at a hotspot boundary.

    ``kind`` is free-form (the framework uses "tuning", "config",
    "sampling"); ``fn`` is invoked by the VM with ``(hotspot, vm)`` at entry
    stubs and ``(hotspot, invocation_delta, vm)`` at exit stubs.
    """

    __slots__ = ("kind", "fn")

    def __init__(self, kind: str, fn: Callable):
        self.kind = kind
        self.fn = fn

    def __repr__(self) -> str:
        return f"EntryStub({self.kind!r})"


class JITCompiler:
    """Compile-state tracker + instrumentation patch points."""

    def __init__(self, top_level: OptimizationLevel = OptimizationLevel.O2):
        self.top_level = top_level
        self.levels: Dict[str, OptimizationLevel] = {}
        self.entry_stubs: Dict[str, EntryStub] = {}
        self.exit_stubs: Dict[str, EntryStub] = {}
        self.compile_log: List[CompileEvent] = []
        self.total_compile_cycles = 0.0

    # -- compilation -------------------------------------------------------

    def compile(
        self,
        method: Method,
        level: OptimizationLevel,
        now_instructions: int,
    ) -> float:
        """(Re)compile ``method`` at ``level``; returns the cycle cost."""
        current = self.levels.get(method.name)
        if current is not None and current >= level:
            return 0.0
        cost = method.static_instruction_count * _COST_PER_INSN[level]
        self.levels[method.name] = level
        self.compile_log.append(
            CompileEvent(method.name, level, now_instructions, cost)
        )
        self.total_compile_cycles += cost
        return cost

    def ensure_baseline(self, method: Method, now_instructions: int) -> float:
        """First-touch baseline compilation (compile-only VM)."""
        if method.name in self.levels:
            return 0.0
        return self.compile(
            method, OptimizationLevel.BASELINE, now_instructions
        )

    def optimize_hotspot(self, method: Method, now_instructions: int) -> float:
        """Recompile a detected hotspot at the top level (paper §4.2)."""
        return self.compile(method, self.top_level, now_instructions)

    def level_of(self, method_name: str) -> OptimizationLevel:
        return self.levels.get(method_name, OptimizationLevel.BASELINE)

    def code_quality(self, method_name: str) -> float:
        """Cycle divisor reflecting the method's code quality."""
        return _CODE_QUALITY[self.level_of(method_name)]

    # -- instrumentation patching ------------------------------------------

    def patch_entry(self, method_name: str, stub: Optional[EntryStub]) -> None:
        """Install (or, with None, remove) the entry stub of a method."""
        if stub is None:
            self.entry_stubs.pop(method_name, None)
        else:
            self.entry_stubs[method_name] = stub

    def patch_exit(self, method_name: str, stub: Optional[EntryStub]) -> None:
        if stub is None:
            self.exit_stubs.pop(method_name, None)
        else:
            self.exit_stubs[method_name] = stub

    def entry_stub(self, method_name: str) -> Optional[EntryStub]:
        return self.entry_stubs.get(method_name)

    def exit_stub(self, method_name: str) -> Optional[EntryStub]:
        return self.exit_stubs.get(method_name)


# ---------------------------------------------------------------------------
# Block decode tables (fast-kernel support)
# ---------------------------------------------------------------------------

#: Inlined callees have at most this many blocks (the stand-in
#: benchmarks' leaves have at most three).
INLINE_LIMIT = 4


class DecodedBlock:
    """Pre-decoded execution plan of one basic block.

    Everything the fast kernel needs from a block — instruction counts,
    terminator shape, resolved callee ``Method`` objects — is immutable
    once the program is laid out, so each block is decoded once; the
    method's runner (:func:`repro.vm.blockjit.compile_runner`) is
    generated from these slots, and the kernel's driver reads them at
    runner exits.
    """

    __slots__ = (
        "bid",
        "method_name",
        "n_insns",
        "n_loads",
        "n_stores",
        "gen",
        "serialized",
        "callees",
        "n_calls",
        "term_kind",
        "goto_target",
        "taken_target",
        "fallthrough_target",
        "decider",
        "branch_pc",
        "block_pc",
        "needs_iter",
    )

    def __init__(self, method: Method, block, program: Program):
        mix = block.mix
        memory = block.memory
        self.bid = block.bid
        self.method_name = method.name
        self.n_insns = mix.total
        self.n_loads = mix.loads
        self.n_stores = mix.stores
        #: ``memory`` when the body actually generates addresses
        #: (mirrors the reference kernel's ``memory is not None and
        #: (mix.loads or mix.stores)`` guard), else ``None``.
        self.gen = (
            memory
            if memory is not None and (mix.loads or mix.stores)
            else None
        )
        #: Whether the body consumes the iteration counter at all; when
        #: False the runner skips its per-execution maintenance (the
        #: skipped value is unobservable).
        self.needs_iter = (
            self.gen is not None and self.gen.uses_iteration
        )
        self.serialized = getattr(memory, "serialized", False)
        self.callees: Tuple[Method, ...] = tuple(
            program.methods[site.callee] for site in block.calls
        )
        self.n_calls = len(self.callees)
        term = block.terminator
        self.goto_target = None
        self.taken_target = None
        self.fallthrough_target = None
        self.decider = None
        if isinstance(term, Goto):
            self.term_kind = TERM_GOTO
            self.goto_target = term.target
        elif isinstance(term, CondBranch):
            self.term_kind = TERM_COND
            self.taken_target = term.taken
            self.fallthrough_target = term.fallthrough
            self.decider = term.decider
        else:
            self.term_kind = TERM_RETURN
        self.branch_pc = block.branch_pc
        self.block_pc = block.branch_pc or 0

    def __repr__(self) -> str:
        return (
            f"DecodedBlock({self.method_name}:{self.bid}, "
            f"insns={self.n_insns}, term={self.term_kind})"
        )


class BlockDecoder:
    """Per-program cache of :class:`DecodedBlock` tables and runners.

    ``tables`` maps method name to a ``{bid: DecodedBlock}`` dict;
    methods are decoded lazily on first execution so cold methods cost
    nothing.  Decoding also fetches the method's runner factory into
    ``runners`` (for the runner constants ``consts``, see
    :func:`~repro.vm.blockjit.compile_runner`) — compiling it on a code
    cache miss, so the compile is part of the decode — and records in
    ``sites`` the callees its runner inlines, one per inlined call.
    Decoding requires the program to be laid out (branch PCs assigned),
    which the VM already guarantees.  ``lanes`` is the number of
    machines the runners drive (see :mod:`repro.vm.blockjit`).

    A call is inlined when its callee is a leaf (no call blocks) of at
    most :data:`INLINE_LIMIT` blocks and is not ``gc_method``, every
    earlier call of its block is inlined, and its block does not end in
    a return.
    """

    __slots__ = ("program", "consts", "gc_method", "lanes", "tables",
                 "runners", "sites")

    def __init__(self, program: Program, consts: Tuple, gc_method: str = "",
                 lanes: int = 1):
        self.program = program
        self.consts = consts
        self.gc_method = gc_method
        self.lanes = lanes
        self.tables: Dict[str, Dict[str, DecodedBlock]] = {}
        self.runners: Dict[str, Callable] = {}
        self.sites: Dict[str, Tuple[Method, ...]] = {}

    def table(self, method: Method) -> Dict[str, DecodedBlock]:
        table = self.tables.get(method.name)
        if table is None:
            program = self.program
            table = {
                bid: DecodedBlock(method, block, program)
                for bid, block in method.blocks.items()
            }
            blocks = list(table.values())
            sites = []
            callees = []
            for k, dec in enumerate(blocks):
                if dec.term_kind == TERM_RETURN:
                    continue
                for q, callee in enumerate(dec.callees, 1):
                    if not self._inlinable(callee):
                        break
                    callee_table = self.table(callee)
                    entry = list(callee_table).index(callee.entry)
                    sites.append((k, q, list(callee_table.values()), entry))
                    callees.append(callee)
            self.runners[method.name] = compile_runner(
                blocks, self.consts, sites, self.lanes
            )
            self.sites[method.name] = tuple(callees)
            self.tables[method.name] = table
        return table

    def _inlinable(self, method: Method) -> bool:
        blocks = method.blocks.values()
        return (
            method.name != self.gc_method
            and len(blocks) <= INLINE_LIMIT
            and not any(block.calls for block in blocks)
        )
