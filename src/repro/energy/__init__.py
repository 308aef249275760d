"""Energy modelling.

Stands in for the Wattch-based power model of Dynamic SimpleScalar
(paper §4.1), augmented — as the paper's was — with the energy spent
reconfiguring hardware (writing dirty cache lines down the hierarchy).
Per-access and leakage energies scale with cache capacity following
CACTI-style laws; see :mod:`repro.energy.params` for the scaling and the
default constants.
"""
