"""The paper's primary contribution: DO-based ACE management.

The framework (paper §3) manages multiple configurable units by exploiting
the DO system's hotspot machinery:

* :mod:`repro.core.cu_assignment` — CU decoupling (§3.2.1): each hotspot is
  matched with the subset of CUs whose reconfiguration interval is in the
  same range as the hotspot's dynamic size.
* :mod:`repro.core.tuning` — per-hotspot tuning state machines (§3.2.2):
  configuration lists, the performance-threshold early exit, and selection
  of the most energy-efficient configuration.
* :mod:`repro.core.policy` — the adaptation policy wiring it into the VM:
  tuning code at hotspot entries, profiling code at exits, configuration
  code after tuning, and sampling code for drift-triggered re-tuning
  (§3.3).
* :mod:`repro.core.prediction` — the conclusion's future-work sketch: JIT
  static analysis seeding the tuning list with a predicted configuration.
"""
