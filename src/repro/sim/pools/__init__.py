"""The engine's execution layer for ``jobs > 1`` (docs/INTERNALS.md §14).

:mod:`repro.sim.pools.local` holds :class:`LocalProcessPool`, the warm
persistent worker pool an ``Engine(jobs=N)`` builds on first use;
:mod:`repro.sim.pools.worker` is what runs inside its workers; and
:mod:`repro.sim.pools.base` holds the chunk-protocol types and the two
exceptions both sides raise.  ``jobs=1`` runs every cell in the calling
process and imports none of the process-pool side: importing this
package loads nothing.
"""
