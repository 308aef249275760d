"""One dataclass for every execution knob (docs/API.md "Execution
width" has the mapping table).

The execution parameters — ``--jobs``, ``--store-dir`` and
``--no-store`` — live here: the CLI registers and parses them once
(:meth:`ExecutionOptions.add_arguments` /
:meth:`ExecutionOptions.from_args`), and
:func:`repro.sim.experiment.make_engine` maps the whole object onto
:class:`repro.sim.engine.Engine`'s keywords — the one place the two
meet.  Out-of-range values raise ``ValueError`` naming the argument
when the object is built, before any batch starts: the field (``jobs``)
from a library call, the flag (``--jobs``) from parsed arguments.

``jobs`` is the one execution-width setting: ``1`` runs every cell in
the calling process, ``N > 1`` on a warm pool of N worker processes.
Where a cell runs is never part of a result's identity:
``ExperimentConfig.fingerprint()`` does not see any of these knobs, so
a result computed in a pool or serially lands under the same store key
(asserted by the conformance suite).  ``--backend``, ``--chunk-size``
and ``--max-pool-rebuilds`` were retired (docs/INTERNALS.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def check_at_least(name: str, value: Optional[int], floor: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value >= floor``
    (``None`` passes: it means "pick a default")."""
    if value is not None and value < floor:
        raise ValueError(f"{name} must be at least {floor}, got {value!r}")


@dataclass
class ExecutionOptions:
    """Where cells execute and where results persist; never *what* they
    compute."""

    #: Worker processes: 1 runs every cell in the calling process.
    jobs: int = 1
    #: Persistent store directory (``None`` = ``results/store`` or
    #: ``$REPRO_STORE_DIR``).
    store_dir: Optional[str] = None
    #: Disable the persistent store entirely (memory cache only).
    no_store: bool = False

    def __post_init__(self) -> None:
        check_at_least("jobs", self.jobs, 1)

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

    @classmethod
    def from_args(cls, args) -> "ExecutionOptions":
        jobs = getattr(args, "jobs", 1)
        # Parsed arguments are answered in the command line's terms.
        check_at_least("--jobs", jobs, 1)
        return cls(
            jobs=jobs,
            store_dir=getattr(args, "store_dir", None),
            no_store=bool(getattr(args, "no_store", False)),
        )
