"""One dataclass for every execution knob (docs/API.md "Execution
backends" has the mapping table).

The execution parameters — ``--jobs``, ``--backend``, ``--store-dir``,
``--no-store``, ``--chunk-size`` and ``--max-pool-rebuilds`` — live
here: the CLI registers and parses them once
(:meth:`ExecutionOptions.add_arguments` /
:meth:`ExecutionOptions.from_args`), and
:func:`repro.sim.experiment.make_engine` maps the whole object onto
:class:`repro.sim.engine.Engine`'s keywords — the one place the two
meet.  Out-of-range values raise ``ValueError`` naming the argument
when the object is built, before any batch starts.

Backend resolution: an explicit ``backend`` spec wins; otherwise
``jobs > 1`` means ``local:<jobs>`` and anything else means ``serial``
— so the historical ``--jobs N`` contract is unchanged.  The backend
is an execution *location*, never part of a result's identity:
``ExperimentConfig.fingerprint()`` does not see any of these knobs, so
a result computed in a local pool or serially lands under the same
store key (asserted by the conformance suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.pools import parse_pool_spec


def check_at_least(name: str, value: Optional[int], floor: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value >= floor``
    (``None`` passes: it means "pick a default")."""
    if value is not None and value < floor:
        raise ValueError(f"{name} must be at least {floor}, got {value!r}")


@dataclass
class ExecutionOptions:
    """Where and how cells execute; never *what* they compute."""

    #: Backend spec (``serial`` or ``local[:N]``); ``None`` derives one
    #: from ``jobs``.
    backend: Optional[str] = None
    #: Worker processes when no explicit backend spec is given.
    jobs: int = 1
    #: Persistent store directory (``None`` = ``results/store`` or
    #: ``$REPRO_STORE_DIR``).
    store_dir: Optional[str] = None
    #: Disable the persistent store entirely (memory cache only).
    no_store: bool = False
    #: Cells per pool submission (``None`` = auto-size).
    chunk_size: Optional[int] = None
    #: Pool rebuilds per batch before degrading to serial.
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        check_at_least("--jobs", self.jobs, 1)
        check_at_least("--chunk-size", self.chunk_size, 1)
        check_at_least("--max-pool-rebuilds", self.max_pool_rebuilds, 0)
        if self.backend is not None:
            try:
                parse_pool_spec(self.backend)
            except ValueError as error:
                raise ValueError(f"--backend: {error}") from None

    def resolved_backend(self) -> str:
        if self.backend is not None:
            return self.backend
        return f"local:{self.jobs}" if self.jobs > 1 else "serial"

    # -- argparse integration ----------------------------------------------

    @classmethod
    def add_arguments(cls, parser) -> None:
        """Register every execution flag on an argparse parser."""
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for simulations (default: 1, serial; "
            "results are identical for any value)",
        )
        parser.add_argument(
            "--backend",
            default=None,
            metavar="SPEC",
            help="execution backend: 'serial' or 'local[:N]' (N worker "
            "processes, default: the CPU count); overrides --jobs, "
            "results are bit-identical on both",
        )
        parser.add_argument(
            "--store-dir",
            default=None,
            metavar="PATH",
            help="persistent result-store directory (default: "
            "results/store, or $REPRO_STORE_DIR)",
        )
        parser.add_argument(
            "--no-store",
            action="store_true",
            help="disable the persistent result store (in-memory cache "
            "only)",
        )
        parser.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            metavar="N",
            help="cells per pool submission (default: auto-sized)",
        )
        parser.add_argument(
            "--max-pool-rebuilds",
            type=int,
            default=3,
            metavar="N",
            help="worker-crash pool rebuilds per batch before degrading "
            "to serial execution (default: 3)",
        )

    @classmethod
    def from_args(cls, args) -> "ExecutionOptions":
        return cls(
            backend=getattr(args, "backend", None),
            jobs=getattr(args, "jobs", 1),
            store_dir=getattr(args, "store_dir", None),
            no_store=bool(getattr(args, "no_store", False)),
            chunk_size=getattr(args, "chunk_size", None),
            max_pool_rebuilds=getattr(args, "max_pool_rebuilds", 3),
        )
