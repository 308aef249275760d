"""The dynamic optimization (DO) system substrate.

Stands in for Jikes RVM 2.0.2 on Dynamic SimpleScalar (paper §4.2): a
compile-only virtual machine that interprets mini-ISA programs at block
granularity, counts method invocations, detects hotspots when a method's
invocation counter crosses ``hot_threshold`` (paper Table 1), JIT-optimises
them, and dispatches hotspot entry/exit hooks to an attached adaptation
policy — the protocol the paper's ACE management framework (Figure 2) is
built on.
"""
