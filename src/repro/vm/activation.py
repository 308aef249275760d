"""Activation records and per-thread execution state.

An :class:`Activation` is one live method invocation: its current block,
per-block loop/decider state, per-block iteration counters (which drive
strided memory behaviour), and the bookkeeping the VM needs to measure the
invocation's inclusive size.  A :class:`ThreadContext` is an activation
stack plus the thread's deterministic random stream.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.isa.program import Method, Program

#: Bytes reserved per stack frame; frame addresses descend from the stack base.
FRAME_BYTES = 512

#: Base address of thread 0's stack; threads are spaced well apart.
STACK_BASE = 0x7F00_0000
STACK_SPACING = 0x0010_0000


class Activation:
    """One invocation of a method."""

    __slots__ = (
        "method",
        "bid",
        "phase",
        "frame_base",
        "loop_states",
        "entry_instructions",
        "entry_cycles",
        "is_hotspot",
        "policy_token",
    )

    #: ``phase`` values: 0 = execute block body next; 1..len(calls) = next
    #: call site to launch (1-based); len(calls)+1 = evaluate terminator.
    def __init__(self, method: Method, frame_base: int):
        self.method = method
        self.bid = method.entry
        self.phase = 0
        self.frame_base = frame_base
        self.loop_states: Dict[str, object] = {}
        self.entry_instructions = 0
        self.entry_cycles = 0.0
        self.is_hotspot = False
        #: Opaque slot for the adaptation policy (e.g. per-invocation
        #: measurement snapshot installed by tuning code).
        self.policy_token = None

    def __repr__(self) -> str:
        return f"Activation({self.method.name}:{self.bid}, phase={self.phase})"


class ThreadContext:
    """A thread: activation stack + deterministic random stream."""

    def __init__(
        self,
        thread_id: int,
        program: Program,
        entry_method: str,
        seed: int,
    ):
        self.thread_id = thread_id
        self.program = program
        self.rng = random.Random(seed)
        self.stack: List[Activation] = []
        self.stack_base = STACK_BASE - thread_id * STACK_SPACING
        self.finished = False
        #: Count of hotspot activations currently on the stack — while > 0,
        #: executed instructions are "inside hotspots" (Table 4 coverage).
        self.hotspot_depth = 0
        self.entry_method = entry_method
        #: Block-execution counters keyed (method, bid), persisting across
        #: invocations: streaming memory behaviours advance through their
        #: spans as a real workload would process its input progressively.
        self.block_iterations: Dict[tuple, int] = {}
        #: Persistent decider state keyed (method, bid) for deciders with
        #: ``persistent = True``.
        self.persistent_decider_states: Dict[tuple, object] = {}

    def frame_base_for_depth(self, depth: int) -> int:
        return self.stack_base - depth * FRAME_BYTES

    def push(self, method: Method) -> Activation:
        activation = Activation(
            method, self.frame_base_for_depth(len(self.stack))
        )
        self.stack.append(activation)
        return activation

    def pop(self) -> Activation:
        return self.stack.pop()

    @property
    def current(self) -> Optional[Activation]:
        return self.stack[-1] if self.stack else None

    @property
    def depth(self) -> int:
        return len(self.stack)

    def __repr__(self) -> str:
        top = self.current.method.name if self.stack else "<empty>"
        return (
            f"ThreadContext(t{self.thread_id}, depth={self.depth}, top={top})"
        )
