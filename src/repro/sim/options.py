"""One dataclass for every execution knob (docs/API.md "Execution
backends" has the mapping table).

The execution parameters — ``--jobs``, ``--backend``, ``--store-dir``,
``--no-store``, ``--chunk-size``, ``--max-pool-rebuilds``,
``--schedule`` and ``--cost-model-dir`` — live here: the CLI registers
and parses them once (:meth:`ExecutionOptions.add_arguments` /
:meth:`ExecutionOptions.from_args`), and
:func:`repro.sim.experiment.make_engine` maps the whole object onto
:class:`repro.sim.engine.Engine`'s keywords — the one place the two
meet.

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

#: Legal chunk-planning modes (docs/INTERNALS.md §18); ``--schedule``'s
#: choices, checked by the engine and the planner.
SCHEDULE_MODES = ("lpt", "fifo")


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
    #: Chunk-planning mode (docs/INTERNALS.md §18): ``"lpt"`` (default)
    #: packs chunks by estimated cost, longest first, once the cost
    #: model has history — with none it degrades to exactly the
    #: ``"fifo"`` behaviour (submission order, count-based chunks).
    #: Never affects results, only wall-clock.
    schedule: str = "lpt"
    #: Directory for the cost model's persistent snapshot
    #: (``cost_model.json``); ``None`` keeps estimates in memory (the
    #: result store's entry metadata still warm-boots them).
    cost_model_dir: Optional[str] = None

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
        parser.add_argument(
            "--schedule",
            choices=SCHEDULE_MODES,
            default="lpt",
            help="chunk planning: 'lpt' packs chunks by estimated cost "
            "(longest first) once runtime history exists; 'fifo' keeps "
            "submission-order count-based chunks. "
            "Results are bit-identical either way (default: lpt)",
        )
        parser.add_argument(
            "--cost-model-dir",
            default=None,
            metavar="PATH",
            help="persist the scheduler's runtime cost model to "
            "PATH/cost_model.json across processes (default: in-memory, "
            "warm-booted from result-store metadata)",
        )

    @classmethod
    def from_args(cls, args) -> "ExecutionOptions":
        return cls(
            backend=getattr(args, "backend", None),
            jobs=getattr(args, "jobs", 1) or 1,
            store_dir=getattr(args, "store_dir", None),
            no_store=bool(getattr(args, "no_store", False)),
            chunk_size=getattr(args, "chunk_size", None),
            max_pool_rebuilds=getattr(args, "max_pool_rebuilds", 3),
            schedule=getattr(args, "schedule", "lpt") or "lpt",
            cost_model_dir=getattr(args, "cost_model_dir", None),
        )
