"""Microarchitecture substrate.

Stands in for Dynamic SimpleScalar (paper §4.1): a resizable set-associative
write-back cache model, a bimodal branch predictor, an analytic timing model,
and the configurable-unit (CU) plumbing the paper's framework manages —
control registers plus the per-CU reconfiguration-interval guard of §3.4.
"""
