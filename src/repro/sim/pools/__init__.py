"""The two execution backends behind the :class:`Pool` API.

:func:`make_pool` parses the backend *specs* that ``Engine(pool=...)``,
:class:`repro.sim.options.ExecutionOptions`, and the CLI's
``--backend`` accept::

    serial      in-process reference backend
    local[:N]   warm persistent process pool, N workers (default: the
                CPU count)

See docs/INTERNALS.md §14 for the backend contract.  The ``ssh:`` and
``ssh-loopback:`` backends were retired (docs/INTERNALS.md §16); asking
for them raises a ``ValueError`` naming the note.
"""

from __future__ import annotations

import os

from repro.sim.pools.base import (
    BROKEN_EXCEPTIONS,
    CellTimeout,
    ChunkPayload,
    Pool,
    PoolBrokenError,
    completed_future,
)
from repro.sim.pools.local import LocalProcessPool, SerialPool

__all__ = [
    "BACKEND_KINDS",
    "BROKEN_EXCEPTIONS",
    "CellTimeout",
    "ChunkPayload",
    "LocalProcessPool",
    "Pool",
    "PoolBrokenError",
    "SerialPool",
    "completed_future",
    "make_pool",
]

#: Backend kinds :func:`make_pool` accepts.
BACKEND_KINDS = ("serial", "local")

#: Backend kinds that no longer exist, and fail loudly instead.
RETIRED_BACKENDS = ("ssh", "ssh-loopback")


def make_pool(spec: str) -> Pool:
    """Resolve a backend spec: ``serial``, ``local`` or ``local:N``."""
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name == "serial":
        if arg:
            raise ValueError("the serial backend takes no argument")
        return SerialPool()
    if name == "local":
        try:
            workers = int(arg) if arg else os.cpu_count() or 2
        except ValueError:
            raise ValueError(
                f"backend spec {spec!r} wants an integer worker count, "
                f"got {arg!r}"
            ) from None
        return LocalProcessPool(workers=max(1, workers))
    if name in RETIRED_BACKENDS:
        raise ValueError(
            f"the {name!r} backend was retired with host health and "
            "straggler speculation (docs/INTERNALS.md §16); use "
            "'serial' or 'local[:N]'"
        )
    raise ValueError(
        f"unknown backend {name!r}; known: {', '.join(BACKEND_KINDS)}"
    )
