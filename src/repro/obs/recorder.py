"""Flight recorder: a persistent per-run JSONL manifest.

Where the event log answers "what did the tuner decide" and the metrics
registry "how often", the flight recorder answers the post-mortem
question: *what did this run actually do, and what went wrong* — after
the process is gone.  One :class:`FlightRecorder` writes one append-only
JSONL file per engine run, flushed record by record so a crashed or
killed run still leaves everything it knew on disk:

* ``begin_batch`` — backend spec, worker count, failure policy, retry
  budget, fault-plan spec, and every cell's ``(benchmark, scheme,
  config-fingerprint)`` identity;
* ``cell`` — one record per terminal cell outcome (status, attempts,
  source layer, error + remote traceback for failures);
* ``note`` — degradation breadcrumbs (worker crashes, pool rebuilds,
  degrade-to-serial transitions, unarmed timeouts);
* ``end_batch`` / ``batch_aborted`` — outcome tally, engine counters,
  telemetry truncation counts.

The engine attaches a recorder when asked (``Engine(recorder=...)``,
CLI ``--record``) or when ``$REPRO_FLIGHT_DIR`` names a directory —
the environment hook exists so CI chaos jobs can dump every run's
manifest without plumbing a flag through each entry point.

A manifest is the forensic record of a run, not a way to continue
one: the engine writes each result through to the result store, so a
plain re-run of a killed campaign is served its finished cells from the
store (docs/INTERNALS.md §16).  Three properties keep a crashed run's
manifest readable: every record carries a ``schema`` version, batch
begin/end records are fsynced (a manifest that *starts* is durably
marked as such), and a torn trailing line — the expected wound of a
SIGKILL mid-write — is skipped with a warning by :meth:`read` rather
than poisoning the whole file.  Each ``cell`` record carries its
config fingerprint, which names the cell's store entry.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Manifest record schema.  v1 (implicit) had no schema field and no
#: fingerprints on cell records; v2 added both, plus two ``begin_batch``
#: fields linking a continued run to the manifest it replayed and
#: counting that replay's partition.  v3 drops those two fields: a
#: re-run is served by the result store and never reads a manifest.
SCHEMA_VERSION = 3


class FlightRecorder:
    """Append-only JSONL writer for one run's manifest."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    @classmethod
    def in_dir(
        cls, directory: Union[str, Path], run_id: Optional[str] = None
    ) -> "FlightRecorder":
        """A recorder on a fresh, collision-free file in ``directory``."""
        if run_id is None:
            run_id = f"run-{time.time_ns()}-{os.getpid()}"
        return cls(Path(directory) / f"{run_id}.jsonl")

    @classmethod
    def from_env(cls) -> Optional["FlightRecorder"]:
        """A recorder under ``$REPRO_FLIGHT_DIR``, or None when unset."""
        directory = os.environ.get("REPRO_FLIGHT_DIR")
        return cls.in_dir(directory) if directory else None

    def _write(self, kind: str, _sync: bool = False, **fields: object) -> None:
        record: Dict[str, object] = {
            "ts": time.time(),
            "kind": kind,
            "schema": SCHEMA_VERSION,
        }
        record.update(fields)
        # Append + flush per record: a killed run keeps everything it
        # managed to learn.  default=repr degrades unserialisable
        # payloads (an exotic fault-plan field) to their repr instead of
        # losing the record.  Batch lifecycle records additionally
        # fsync, so a manifest which names its cells really started (and
        # one with ``end_batch`` really finished) even across power
        # loss.
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=repr))
            handle.write("\n")
            if _sync:
                handle.flush()
                os.fsync(handle.fileno())

    # -- engine hooks -------------------------------------------------------

    def begin_batch(
        self,
        backend: str,
        workers: int,
        failure_policy: str,
        cell_timeout: Optional[float],
        max_retries: int,
        fault_plan: Optional[object],
        cells: List[Dict[str, object]],
    ) -> None:
        self._write(
            "begin_batch",
            _sync=True,
            backend=backend,
            workers=workers,
            failure_policy=failure_policy,
            cell_timeout=cell_timeout,
            max_retries=max_retries,
            fault_plan=None if fault_plan is None else repr(fault_plan),
            cells=cells,
        )

    def cell(
        self,
        benchmark: str,
        scheme: str,
        status: str,
        attempts: int,
        source: str,
        error: Optional[str] = None,
        traceback: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self._write(
            "cell",
            benchmark=benchmark,
            scheme=scheme,
            status=status,
            attempts=attempts,
            source=source,
            error=error,
            traceback=traceback,
            fingerprint=fingerprint,
        )

    def note(self, what: str, **fields: object) -> None:
        """A degradation breadcrumb (worker crash, degrade-to-serial...)."""
        self._write("note", what=what, **fields)

    def end_batch(self, batch, stats, events_dropped: int = 0) -> None:
        self._write(
            "end_batch",
            _sync=True,
            outcomes=batch.counts(),
            cells=len(batch),
            degraded=batch.degraded,
            stats=dataclasses.asdict(stats),
            events_dropped=events_dropped,
        )

    def batch_aborted(self, error: BaseException) -> None:
        self._write("batch_aborted", _sync=True, error=repr(error)[:500])

    @staticmethod
    def read(path: Union[str, Path]) -> List[Dict[str, object]]:
        """Parse a manifest back into its records (inspection helper).

        Tolerant of torn lines: a record whose write was cut off by a
        SIGKILL (or a disk-full truncation) is skipped with a warning
        rather than raised — everything decodable is still returned,
        which is what a post-mortem of a crashed run needs.
        """
        records = []
        for number, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                warnings.warn(
                    f"{path}:{number}: skipping undecodable manifest "
                    f"line ({len(line)} bytes; torn write?)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return records

    def __repr__(self) -> str:
        return f"FlightRecorder({str(self.path)!r})"
