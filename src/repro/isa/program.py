"""Program representation: basic blocks, control flow, methods, programs.

Programs in the reproduction are block-structured CFGs.  Each basic block
carries an aggregate :class:`~repro.isa.instructions.InstructionMix`, an
optional :class:`MemoryBehavior` that generates the block's data addresses,
zero or more call sites, and a terminator describing control flow out of the
block.  Conditional terminators resolve their direction through a *decider*
object, which lets workloads express loops with data-dependent trip counts,
biased branches, and phase-alternating control flow deterministically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.isa.instructions import Instruction, InstructionMix, synthesize_instructions

#: Byte size of one encoded instruction; PCs advance by this much.
INSTRUCTION_BYTES = 4


class ProgramValidationError(Exception):
    """Raised when a program's structure is inconsistent."""


@dataclass(frozen=True)
class DataRegion:
    """A contiguous data region owned by a method (its heap working set)."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"data region size must be positive: {self.size}")
        if self.base < 0:
            raise ValueError(f"data region base must be non-negative: {self.base}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class MemoryBehavior(abc.ABC):
    """Generates the data addresses a block touches on one execution.

    Implementations live in :mod:`repro.workloads.patterns`; the interpreter
    only relies on this interface.  ``generate`` returns two address lists —
    loads and stores — and must be deterministic given the supplied RNG
    state, so whole runs replay bit-identically from a seed.
    """

    #: True when ``generate`` depends on the per-block ``iteration``
    #: counter (streaming/windowed patterns).  Purely random patterns
    #: override this with False, which lets the fast kernel skip the
    #: counter's per-execution maintenance entirely — the value it
    #: would have passed is unobservable.
    uses_iteration = True

    @abc.abstractmethod
    def generate(
        self,
        rng,
        frame_base: int,
        region_base: int,
        iteration: int,
        n_loads: int,
        n_stores: int,
    ) -> Tuple[List[int], List[int]]:
        """Produce ``(load_addresses, store_addresses)`` for one execution.

        ``rng`` is the activation's private random stream, ``frame_base`` the
        activation's stack-frame address, ``region_base`` the enclosing
        method's heap-region base (0 if the method has none), and
        ``iteration`` a per-activation execution counter for this block
        (drives strided/streaming patterns).  ``n_loads``/``n_stores`` come
        from the block's instruction mix; implementations must return exactly
        that many addresses of each kind.
        """

    def footprint(self) -> Optional[int]:
        """Approximate byte working set, if statically known (for docs/tests)."""
        return None

    def compile_fast(self, n_loads: int, n_stores: int):
        """Optional specialised generator for the fast simulation kernel.

        Returns a callable ``(rng, frame_base, region_base, iteration) ->
        (loads, stores)`` that produces *exactly* the addresses (and the
        exact RNG draw sequence) :meth:`generate` would for the given
        fixed ``n_loads``/``n_stores``, or ``None`` when no
        specialisation exists (the fast kernel then falls back to
        :meth:`generate`).  Block reference counts are static, so the
        fast kernel compiles one specialised closure per block at decode
        time (see :class:`repro.vm.jit.DecodedBlock`).
        """
        return None


# ---------------------------------------------------------------------------
# Branch deciders
# ---------------------------------------------------------------------------


class BranchDecider(abc.ABC):
    """Decides the direction of a conditional terminator.

    Deciders are *stateless descriptors*: per-activation state lives in the
    interpreter, keyed by block, so the same program object can execute in
    many activations (and threads) concurrently.  Subclasses that set
    ``persistent = True`` get state keyed per (thread, method, block)
    instead, surviving across invocations.
    """

    persistent = False

    @abc.abstractmethod
    def initial_state(self, rng) -> object:
        """Create per-activation decider state (called on first execution)."""

    @abc.abstractmethod
    def decide(self, state: object, rng) -> Tuple[bool, object]:
        """Return ``(taken, new_state)`` for one execution of the branch."""


TripSource = Union[int, Callable[[object], int]]


class LoopDecider(BranchDecider):
    """Back-edge decider: taken while the activation's trip budget remains.

    ``trips`` is either a fixed trip count or a callable drawing a trip count
    from the activation RNG each time the loop is (re-)entered.  The branch
    is *taken* (loops) ``trips - 1`` times, then falls through once and the
    budget re-arms, so re-entering the loop later in the same activation
    behaves like a fresh loop.
    """

    def __init__(self, trips: TripSource):
        if isinstance(trips, int) and trips < 1:
            raise ValueError(f"loop trip count must be >= 1, got {trips}")
        self.trips = trips

    def _draw(self, rng) -> int:
        if callable(self.trips):
            value = int(self.trips(rng))
            return max(1, value)
        return self.trips

    def initial_state(self, rng) -> int:
        return self._draw(rng)

    def decide(self, state: int, rng) -> Tuple[bool, int]:
        remaining = state - 1
        if remaining <= 0:
            return False, self._draw(rng)  # fall through; re-arm
        return True, remaining

    def __repr__(self) -> str:
        return f"LoopDecider(trips={self.trips!r})"


class RandomDecider(BranchDecider):
    """Takes the branch with fixed probability (models data-dependent code)."""

    def __init__(self, p_taken: float):
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken must be in [0, 1], got {p_taken}")
        self.p_taken = p_taken

    def initial_state(self, rng) -> None:
        return None

    def decide(self, state: None, rng) -> Tuple[bool, None]:
        return rng.random() < self.p_taken, None

    def __repr__(self) -> str:
        return f"RandomDecider(p_taken={self.p_taken})"


class AlternatingDecider(BranchDecider):
    """Taken for ``period`` executions, then not taken for ``period``, etc.

    Produces perfectly periodic control flow — the easiest prey for the
    2-bit predictor and a building block for phase-alternating workloads.
    """

    #: Where the decider's counter lives: per-activation by default, or —
    #: for subclasses with ``persistent = True`` — per (thread, method,
    #: block), surviving across invocations.
    persistent = False

    def __init__(self, period: int = 1):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period

    def initial_state(self, rng) -> int:
        return 0

    def decide(self, state: int, rng) -> Tuple[bool, int]:
        taken = (state // self.period) % 2 == 0
        return taken, state + 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(period={self.period})"


class PersistentAlternatingDecider(AlternatingDecider):
    """Alternating decider whose counter survives across invocations.

    A method invoked for a handful of loop iterations at a time still
    alternates through its branch targets in long runs — the pattern of a
    worker that processes a few items per call from a progressing
    workload.  State is kept per (thread, method, block) by the
    interpreter.
    """

    persistent = True


class PeriodicDecider(BranchDecider):
    """Cycles through an explicit boolean outcome pattern."""

    def __init__(self, pattern: Sequence[bool]):
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = tuple(bool(x) for x in pattern)

    def initial_state(self, rng) -> int:
        return 0

    def decide(self, state: int, rng) -> Tuple[bool, int]:
        return self.pattern[state % len(self.pattern)], state + 1

    def __repr__(self) -> str:
        return f"PeriodicDecider(pattern={self.pattern!r})"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Goto:
    """Unconditional jump to another block of the same method."""

    target: str


@dataclass(frozen=True)
class CondBranch:
    """Two-way conditional branch resolved by a decider."""

    taken: str
    fallthrough: str
    decider: BranchDecider = field(compare=False)


@dataclass(frozen=True)
class Return:
    """Return from the enclosing method."""


Terminator = Union[Goto, CondBranch, Return]


@dataclass(frozen=True)
class CallSite:
    """A call to another method, executed after the block body."""

    callee: str


# ---------------------------------------------------------------------------
# Blocks, methods, programs
# ---------------------------------------------------------------------------


class BasicBlock:
    """A basic block: aggregate profile + memory behaviour + terminator.

    ``mix.branches`` and ``mix.calls`` are derived from the terminator and
    call sites if left at zero, keeping profiles consistent by construction.
    """

    def __init__(
        self,
        bid: str,
        mix: InstructionMix,
        terminator: Terminator,
        memory: Optional[MemoryBehavior] = None,
        calls: Sequence[CallSite] = (),
    ):
        if not bid:
            raise ValueError("block id must be non-empty")
        self.bid = bid
        self.calls: Tuple[CallSite, ...] = tuple(calls)
        self.terminator = terminator

        has_branch = isinstance(terminator, (Goto, CondBranch))
        branches = mix.branches or (1 if has_branch else 0)
        n_calls = mix.calls or len(self.calls)
        self.mix = InstructionMix(
            total=max(mix.total, mix.loads + mix.stores + branches + n_calls),
            loads=mix.loads,
            stores=mix.stores,
            branches=branches,
            calls=n_calls,
            compute_mix=mix.compute_mix,
        )
        self.memory = memory

        # Filled in by Program.layout():
        self.base_pc: Optional[int] = None
        self.branch_pc: Optional[int] = None
        self._instructions: Optional[List[Instruction]] = None

    @property
    def n_instructions(self) -> int:
        return self.mix.total

    @property
    def is_conditional(self) -> bool:
        return isinstance(self.terminator, CondBranch)

    def successors(self) -> List[str]:
        term = self.terminator
        if isinstance(term, Goto):
            return [term.target]
        if isinstance(term, CondBranch):
            return [term.taken, term.fallthrough]
        return []

    def instructions(self) -> List[Instruction]:
        """Concrete listing consistent with the aggregate profile.

        Synthesized lazily; PCs are attached if the program has been laid
        out.
        """
        if self._instructions is None:
            listing = synthesize_instructions(self.mix)
            if self.base_pc is not None:
                listing = [
                    ins.with_pc(self.base_pc + i * INSTRUCTION_BYTES)
                    for i, ins in enumerate(listing)
                ]
            self._instructions = listing
        return self._instructions

    def __repr__(self) -> str:
        return (
            f"BasicBlock({self.bid!r}, insns={self.mix.total}, "
            f"loads={self.mix.loads}, stores={self.mix.stores}, "
            f"term={type(self.terminator).__name__})"
        )


class Method:
    """A method: an entry block plus a CFG of basic blocks.

    ``region`` describes the method's heap working set; memory behaviours of
    its blocks typically draw addresses from it.  ``code_footprint`` (bytes)
    feeds the analytic L1I model in the machine.
    """

    def __init__(
        self,
        name: str,
        blocks: Iterable[BasicBlock],
        entry: str,
        region: Optional[DataRegion] = None,
        attributes: Optional[Dict[str, object]] = None,
    ):
        if not name:
            raise ValueError("method name must be non-empty")
        self.name = name
        self.blocks: Dict[str, BasicBlock] = {}
        for block in blocks:
            if block.bid in self.blocks:
                raise ProgramValidationError(
                    f"duplicate block id {block.bid!r} in method {name!r}"
                )
            self.blocks[block.bid] = block
        if entry not in self.blocks:
            raise ProgramValidationError(
                f"entry block {entry!r} not found in method {name!r}"
            )
        self.entry = entry
        self.region = region
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.code_base: Optional[int] = None
        self._static_insns: Optional[int] = None

    @property
    def static_instruction_count(self) -> int:
        # Cached: the VM reads this (via code_footprint) on every method
        # invocation, and block mixes are immutable after construction.
        count = self._static_insns
        if count is None:
            count = sum(b.n_instructions for b in self.blocks.values())
            self._static_insns = count
        return count

    @property
    def code_footprint(self) -> int:
        """Static code size in bytes."""
        return self.static_instruction_count * INSTRUCTION_BYTES

    def callees(self) -> List[str]:
        seen: List[str] = []
        for block in self.blocks.values():
            for site in block.calls:
                if site.callee not in seen:
                    seen.append(site.callee)
        return seen

    def validate(self) -> None:
        for block in self.blocks.values():
            for target in block.successors():
                if target not in self.blocks:
                    raise ProgramValidationError(
                        f"method {self.name!r}: block {block.bid!r} targets "
                        f"unknown block {target!r}"
                    )
        # Every block must be able to reach a Return, otherwise an
        # activation could never terminate.
        returning = {
            bid
            for bid, b in self.blocks.items()
            if isinstance(b.terminator, Return)
        }
        if not returning:
            raise ProgramValidationError(
                f"method {self.name!r} has no returning block"
            )
        preds: Dict[str, List[str]] = {bid: [] for bid in self.blocks}
        for bid, block in self.blocks.items():
            for target in block.successors():
                preds[target].append(bid)
        reaches = set(returning)
        frontier = list(returning)
        while frontier:
            bid = frontier.pop()
            for pred in preds[bid]:
                if pred not in reaches:
                    reaches.add(pred)
                    frontier.append(pred)
        unreachable = set(self.blocks) - reaches
        if unreachable:
            raise ProgramValidationError(
                f"method {self.name!r}: blocks {sorted(unreachable)} cannot "
                "reach a return"
            )

    def __repr__(self) -> str:
        return f"Method({self.name!r}, blocks={len(self.blocks)})"


class Program:
    """A whole program: methods plus an entry method.

    ``layout`` assigns code addresses (PCs) to methods and blocks; the BBV
    baseline keys its accumulator table on branch PCs, so layout must happen
    before execution.  :meth:`validated` performs layout and whole-program
    checks and is the normal way to finalize a program.
    """

    #: Default base address of the code segment.
    CODE_BASE = 0x0001_0000

    def __init__(self, methods: Iterable[Method], entry: str):
        self.methods: Dict[str, Method] = {}
        for method in methods:
            if method.name in self.methods:
                raise ProgramValidationError(
                    f"duplicate method name {method.name!r}"
                )
            self.methods[method.name] = method
        if entry not in self.methods:
            raise ProgramValidationError(f"entry method {entry!r} not found")
        self.entry = entry
        self._laid_out = False

    def layout(self, base: int = CODE_BASE) -> None:
        """Assign code addresses to every method, block, and branch."""
        pc = base
        for method in self.methods.values():
            method.code_base = pc
            for block in method.blocks.values():
                block.base_pc = pc
                block._instructions = None  # re-synthesize with PCs
                n = block.n_instructions
                # The terminating branch is the block's last instruction.
                block.branch_pc = pc + (n - 1) * INSTRUCTION_BYTES
                pc += n * INSTRUCTION_BYTES
        self._laid_out = True

    @property
    def is_laid_out(self) -> bool:
        return self._laid_out

    def validate(self) -> None:
        for method in self.methods.values():
            method.validate()
            for callee in method.callees():
                if callee not in self.methods:
                    raise ProgramValidationError(
                        f"method {method.name!r} calls unknown method "
                        f"{callee!r}"
                    )
        self._check_recursion_bounded()

    def _check_recursion_bounded(self) -> None:
        """Reject call-graph cycles: the interpreter does not model a
        recursion-depth bound, so recursive programs could run forever."""
        colors: Dict[str, int] = {}
        stack: List[Tuple[str, Iterable[str]]] = []

        def visit(name: str) -> None:
            colors[name] = 1
            stack.append((name, iter(self.methods[name].callees())))
            while stack:
                top, it = stack[-1]
                advanced = False
                for callee in it:
                    state = colors.get(callee, 0)
                    if state == 1:
                        raise ProgramValidationError(
                            f"recursive call cycle through {callee!r}"
                        )
                    if state == 0:
                        colors[callee] = 1
                        stack.append(
                            (callee, iter(self.methods[callee].callees()))
                        )
                        advanced = True
                        break
                if not advanced:
                    colors[top] = 2
                    stack.pop()

        for name in self.methods:
            if colors.get(name, 0) == 0:
                visit(name)

    def validated(self, base: int = CODE_BASE) -> "Program":
        """Validate, lay out, and return self (fluent finalizer)."""
        self.validate()
        self.layout(base)
        return self

    @property
    def static_instruction_count(self) -> int:
        return sum(m.static_instruction_count for m in self.methods.values())

    def __repr__(self) -> str:
        return (
            f"Program(entry={self.entry!r}, methods={len(self.methods)}, "
            f"static_insns={self.static_instruction_count})"
        )
