"""Mini instruction set and program representation.

The reproduction does not interpret real PowerPC code.  Instead, programs are
expressed in a small block-structured intermediate representation: a
:class:`~repro.isa.program.Program` is a set of
:class:`~repro.isa.program.Method` objects, each a control-flow graph of
:class:`~repro.isa.program.BasicBlock` nodes.  Blocks carry an aggregate
execution profile (instruction mix, memory behaviour, terminator semantics)
that the interpreter in :mod:`repro.vm` replays at block granularity; blocks
can also carry a concrete instruction listing consistent with those
aggregates, which keeps the representation honest for static statistics
without forcing per-instruction interpretation.  Programs are written with
:class:`~repro.isa.builder.ProgramBuilder`.
"""
