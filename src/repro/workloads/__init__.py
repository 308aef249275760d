"""Workload generation: memory-access patterns, method templates, and the
seven SPECjvm98 stand-in benchmarks.

The paper evaluates on SPECjvm98 with the s100 inputs (~10^10 dynamic
instructions per benchmark).  The reproduction substitutes parameterised
synthetic programs whose hotspot structure, working-set sizes, and phase
behaviour match the per-benchmark characteristics the paper publishes
(Table 4, Table 5, Figure 1) at 1/100 interval scale — see DESIGN.md §2.
"""
