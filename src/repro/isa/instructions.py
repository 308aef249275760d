"""Instruction-level definitions for the mini ISA.

Instructions exist for fidelity and tooling: the interpreter executes blocks
from their aggregate profiles, but every block can be *lowered* to a concrete
instruction listing consistent with those aggregates
(:func:`synthesize_instructions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple


class Opcode(Enum):
    """Opcodes of the mini ISA.

    The set mirrors the functional-unit classes of the paper's baseline
    machine (Table 2): integer ALUs, integer multiply/divide, FP ALUs, FP
    multiply/divide, plus memory and control-flow operations.
    """

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FPALU = "fpalu"
    FPMUL = "fpmul"
    FPDIV = "fpdiv"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RET = "ret"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in (Opcode.LOAD, Opcode.STORE)

    @property
    def is_control(self) -> bool:
        return self in (Opcode.BRANCH, Opcode.JUMP, Opcode.CALL, Opcode.RET)


#: Default fractional mix of computational opcodes used when synthesizing a
#: concrete listing from an aggregate block profile.  Roughly mirrors the
#: integer-dominated mix of SPECjvm98 code.
DEFAULT_COMPUTE_MIX: Tuple[Tuple[Opcode, float], ...] = (
    (Opcode.ALU, 0.72),
    (Opcode.MUL, 0.06),
    (Opcode.DIV, 0.02),
    (Opcode.FPALU, 0.14),
    (Opcode.FPMUL, 0.05),
    (Opcode.FPDIV, 0.01),
)


@dataclass(frozen=True)
class Instruction:
    """A single mini-ISA instruction.

    ``pc`` is assigned when the enclosing program is laid out
    (:meth:`repro.isa.program.Program.layout`); before layout it is ``None``.
    """

    opcode: Opcode
    operands: Tuple[str, ...] = ()
    pc: Optional[int] = None

    def with_pc(self, pc: int) -> "Instruction":
        return Instruction(self.opcode, self.operands, pc)

    def __str__(self) -> str:
        ops = ", ".join(self.operands)
        text = self.opcode.value if not ops else f"{self.opcode.value} {ops}"
        if self.pc is not None:
            return f"{self.pc:#010x}: {text}"
        return text


@dataclass
class InstructionMix:
    """Aggregate instruction counts of a basic block.

    This is the profile the interpreter actually replays; a concrete listing
    is only a consistent expansion of it.
    """

    total: int
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls: int = 0
    compute_mix: Tuple[Tuple[Opcode, float], ...] = field(
        default=DEFAULT_COMPUTE_MIX
    )

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError(f"negative instruction count: {self.total}")
        for name in ("loads", "stores", "branches", "calls"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"negative {name} count: {value}")
        if self.non_compute > self.total:
            raise ValueError(
                "memory/control instructions "
                f"({self.non_compute}) exceed block total ({self.total})"
            )

    @property
    def non_compute(self) -> int:
        return self.loads + self.stores + self.branches + self.calls

    @property
    def compute(self) -> int:
        return self.total - self.non_compute

    @property
    def memory_refs(self) -> int:
        return self.loads + self.stores


def _compute_opcode_counts(
    mix: InstructionMix,
) -> List[Tuple[Opcode, int]]:
    """Split ``mix.compute`` instructions across compute opcodes.

    Uses largest-remainder apportionment so the counts always sum exactly to
    ``mix.compute``.
    """
    n = mix.compute
    if n == 0:
        return []
    raw = [(op, frac * n) for op, frac in mix.compute_mix]
    floors = [(op, int(x)) for op, x in raw]
    assigned = sum(c for _, c in floors)
    remainders = sorted(
        range(len(raw)),
        key=lambda i: raw[i][1] - floors[i][1],
        reverse=True,
    )
    counts = [c for _, c in floors]
    for i in remainders[: n - assigned]:
        counts[i] += 1
    return [
        (op, count)
        for (op, _), count in zip(floors, counts)
        if count > 0
    ]


def synthesize_instructions(mix: InstructionMix) -> List[Instruction]:
    """Expand an aggregate block profile into a concrete instruction listing.

    The listing interleaves memory and compute operations (memory operations
    spread through the block rather than clustered at one end) and places
    calls and the terminating branch last, matching how the interpreter
    sequences block side effects.
    """
    body: List[Instruction] = []
    for opcode, count in _compute_opcode_counts(mix):
        body.extend(Instruction(opcode) for _ in range(count))
    memory = [Instruction(Opcode.LOAD) for _ in range(mix.loads)]
    memory.extend(Instruction(Opcode.STORE) for _ in range(mix.stores))

    # Interleave memory references through the compute body at an even
    # stride so the listing looks like scheduled code, not two runs.
    listing: List[Instruction] = []
    if memory:
        stride = max(1, (len(body) + len(memory)) // len(memory))
        mem_iter = iter(memory)
        pending = next(mem_iter, None)
        for i, instr in enumerate(body):
            listing.append(instr)
            if pending is not None and (i + 1) % stride == 0:
                listing.append(pending)
                pending = next(mem_iter, None)
        if pending is not None:
            listing.append(pending)
        listing.extend(mem_iter)
    else:
        listing = body

    listing.extend(Instruction(Opcode.CALL) for _ in range(mix.calls))
    listing.extend(Instruction(Opcode.BRANCH) for _ in range(mix.branches))
    if len(listing) < mix.total:
        listing.extend(
            Instruction(Opcode.NOP) for _ in range(mix.total - len(listing))
        )
    return listing
