"""Temporal phase detection baseline: Basic Block Vectors.

Implements the comparison scheme of paper §4.1/§5.2 — BBV phase tracking
(Sherwood et al., ISCA'03) driving the exhaustive multi-configuration
tuning algorithm of Dhodapkar & Smith (ISCA'02):

* fixed sampling intervals (the L2 reconfiguration interval — the slowest
  CU sets the pace, §2.3/§3.2.1);
* a bucketed basic-block-vector accumulator with 24-bit saturating
  counters, harvested and classified each interval by Manhattan distance;
* stable-phase filtering (two or more consecutive same-phase intervals);
* per-phase memoisation of tuning progress and the chosen configuration
  (recurring phases resume tuning or reuse their configuration), but *no*
  next-phase predictor — exactly the implementation the paper compares
  against.
"""
