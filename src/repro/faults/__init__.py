"""Fault-injection subsystem: seeded chaos for engine, machine, policies.

See :mod:`repro.faults.plan` for the full contract and
docs/INTERNALS.md §11 for the architecture.  Public surface:

* :class:`FaultPlan` — the seeded, deterministic fault schedule;
* :class:`InjectedFault` — the exception artificial failures raise;
* :func:`corrupt_file` — the truncation primitive behind the
  ``store_corrupt`` site (exposed for tests);
* :func:`deterministic_uniform` — the pure ``(seed, site, key)`` hash
  draw underlying every plan decision.
"""

from repro.faults.plan import (
    PROBABILITY_SITES,
    FaultPlan,
    InjectedFault,
    corrupt_file,
    deterministic_uniform,
)

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "PROBABILITY_SITES",
    "corrupt_file",
    "deterministic_uniform",
]
