"""The execution backends ``Engine(pool=...)`` accepts.

:func:`parse_pool_spec` validates the backend *specs* that
``Engine(pool=...)``, :class:`repro.sim.options.ExecutionOptions`, and
the CLI's ``--backend`` accept, and :func:`make_pool` builds the one
that is a :class:`Pool`::

    serial      no pool: the engine runs every cell in-process
    local[:N]   warm persistent process pool, N workers (default: the
                CPU count)

See docs/INTERNALS.md §14 for the backend contract.  The classes live in
:mod:`repro.sim.pools.base` (the contract) and
:mod:`repro.sim.pools.local` (the process pool), which only
:func:`make_pool` imports: importing this package loads neither.  The
``ssh:`` and ``ssh-loopback:`` backends were retired (docs/INTERNALS.md
§16); asking for them raises a ``ValueError`` naming the note.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from repro.sim.pools.base import Pool

#: Backend kinds :func:`parse_pool_spec` accepts.
BACKEND_KINDS = ("serial", "local")

#: Backend kinds that no longer exist, and fail loudly instead.
RETIRED_BACKENDS = ("ssh", "ssh-loopback")


def parse_pool_spec(spec: str) -> Tuple[str, int]:
    """Validate a backend spec without building the backend.

    Returns ``(kind, workers)``: ``("serial", 1)`` or ``("local", N)``.
    Bad and retired specs raise ``ValueError`` here, before any batch
    starts; nothing heavier than this module is imported.
    """
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name == "serial":
        if arg:
            raise ValueError("the serial backend takes no argument")
        return name, 1
    if name == "local":
        try:
            workers = int(arg) if arg else os.cpu_count() or 2
        except ValueError:
            raise ValueError(
                f"backend spec {spec!r} wants an integer worker count, "
                f"got {arg!r}"
            ) from None
        if workers < 1:
            raise ValueError(
                f"backend spec {spec!r}: local:N wants at least 1 worker, "
                f"got {workers}"
            )
        return name, workers
    if name in RETIRED_BACKENDS:
        raise ValueError(
            f"the {name!r} backend was retired with host health and "
            "straggler speculation (docs/INTERNALS.md §16); use "
            "'serial' or 'local[:N]'"
        )
    raise ValueError(
        f"unknown backend {name!r}; known: {', '.join(BACKEND_KINDS)}"
    )


def make_pool(spec: str) -> "Pool":
    """Build the process pool of a ``local`` or ``local:N`` spec.

    ``serial`` names no pool (the engine runs those cells in-process),
    so it raises ``ValueError`` here.  Building a pool imports
    :mod:`repro.sim.pools.local`, and with it the worker side and the
    whole simulator, so its workers fork from a parent that has it
    loaded.
    """
    kind, workers = parse_pool_spec(spec)
    if kind == "serial":
        raise ValueError(
            "the serial backend builds no pool: the engine runs its "
            "cells in-process"
        )
    from repro.sim.pools.local import LocalProcessPool

    return LocalProcessPool(workers=workers)
