"""Persistent, content-addressed result store (schema v1, sharded).

Every cell the engine executes can be persisted as one JSON file under a
store directory (default ``results/store/``), addressed by the cell's
``(benchmark, scheme, ExperimentConfig.fingerprint())`` identity.  A
fresh process — another CLI invocation, another pytest worker, another
*host* feeding the same shared directory — that asks for the same cell
gets the stored :class:`~repro.sim.driver.RunResult` back instead of
re-simulating.

Directory layout (docs/INTERNALS.md §14): entries live in
**content-hash shards** — two-hex-character directories named by the
fingerprint prefix — so concurrent writers (a multi-host ``ssh``
backend, parallel pytest workers) spread their directory traffic and
their lease contention across 256 buckets instead of one flat dir::

    results/store/
      3f/db__hotspot__3fa89c....json
      3f/.lease                       # transient per-shard writer lease
      a0/jess__baseline__a01b42....json

Entries that older checkouts wrote into the flat root are never read:
a lookup opens the sharded path only.  They still show up in
:meth:`ResultStore.entries`, so ``tools/store_gc.py`` lists and sweeps
them.

Entry layout (schema version 1)::

    {
      "schema": 1,
      "fingerprint": "<64-hex sha256 of the canonical config>",
      "benchmark": "db",
      "scheme": "hotspot",
      "created": 1754000000.0,
      "repro_version": "1.0.0",
      "result": { ... RunResult.to_dict() ... },
      "meta": {                       # optional execution metadata
        "v": 1,                       #   (its own schema version)
        "elapsed_s": 0.41,            # measured cell wall-clock
        "executed_by": "host#pid",    # executor identity
        "cost_key": ["db", "hotspot", "fast", 20]
      }
    }

The ``meta`` block is additive and independently versioned: entries
without it (written by older checkouts) read fine, and readers ignore a
``meta`` whose ``v`` they don't understand.  It never participates in
result identity — it exists so the scheduler's cost model
(:mod:`repro.sim.costmodel`) can warm-boot runtime estimates across
processes via :meth:`ResultStore.iter_meta`.

Robustness rules:

* reads that fail are treated as cache misses — the cell simply
  re-simulates and the entry is rewritten.  *Corrupt* entries (invalid
  JSON, undecodable result payloads) are additionally **quarantined**:
  renamed to ``<entry>.corrupt`` with a ``<entry>.corrupt.reason``
  sidecar recording why, so damaged files are preserved as evidence and
  surfaced by ``tools/store_gc.py`` instead of being silently
  overwritten.  Entries with a merely *unknown schema version* (left by
  older/newer checkouts) stay in place untouched — they are someone
  else's valid data, not corruption;
* commits are atomic (temp file in the shard + ``os.replace``), so a
  crashed or concurrent writer can never leave a truncated entry
  behind — two processes ``put()``-ing the same key concurrently both
  leave a valid entry (last replace wins);
* writers additionally take a **per-shard lease** (``.lease``, created
  ``O_CREAT | O_EXCL``) around a batch of commits.  The lease is an
  optimisation and an observability hook, not a correctness
  requirement: it serialises same-shard batches so rename storms don't
  interleave, a crashed writer's lease goes *stale* after
  ``LEASE_STALE_S`` and is taken over, and a writer that cannot acquire
  a lease within ``LEASE_WAIT_S`` proceeds anyway (counted in
  :attr:`ResultStore.lease_timeouts`) because the rename commit is
  already safe without it;
* ``STORE_SCHEMA_VERSION`` must be bumped whenever the serialised shape
  of :class:`RunResult` changes, and the *fingerprint* version
  (:data:`repro.sim.config.FINGERPRINT_VERSION`) whenever simulator
  behaviour changes meaning under an unchanged config — see
  docs/INTERNALS.md §9.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.sim.driver import RunResult

#: Version of the on-disk entry layout.  Entries with any other value are
#: ignored on read (and reported by ``tools/store_gc.py``).
STORE_SCHEMA_VERSION = 1

#: Default location, overridable with the ``REPRO_STORE_DIR`` environment
#: variable (the CLI's ``--store-dir`` wins over both).
DEFAULT_STORE_DIR = "results/store"

#: Hex characters of the fingerprint naming a shard directory.
SHARD_WIDTH = 2

#: Per-shard writer-lease file name (never matches the entry globs).
LEASE_NAME = ".lease"

#: A lease untouched for this long belongs to a dead writer: take it over.
LEASE_STALE_S = 30.0

#: How long a writer waits for a shard lease before proceeding without
#: one (commits are atomic either way; the overrun is only counted).
LEASE_WAIT_S = 10.0


def default_store_dir() -> Path:
    return Path(os.environ.get("REPRO_STORE_DIR", DEFAULT_STORE_DIR))


@dataclass(frozen=True)
class ClearStats:
    """What :meth:`ResultStore.clear` removed, by file kind."""

    entries: int = 0
    tmp: int = 0
    corrupt: int = 0

    @property
    def total(self) -> int:
        return self.entries + self.tmp + self.corrupt


@dataclass(frozen=True)
class StoreEntryInfo:
    """Metadata of one store file (for listings and GC)."""

    path: Path
    benchmark: Optional[str]
    scheme: Optional[str]
    fingerprint: Optional[str]
    schema: Optional[int]
    created: Optional[float]
    corrupt: bool = False
    #: On-disk size (0 when the file vanished mid-listing).
    size_bytes: int = 0
    #: File mtime (LRU axis for ``store_gc --max-bytes``; 0.0 unknown).
    mtime: float = 0.0

    @property
    def known_schema(self) -> bool:
        return self.schema == STORE_SCHEMA_VERSION

    def age_days(self, now: Optional[float] = None) -> float:
        if self.created is None:
            return float("inf")
        now = time.time() if now is None else now
        return max(0.0, (now - self.created) / 86_400.0)


class _ShardLease:
    """Advisory per-shard writer lease (``O_CREAT | O_EXCL`` file).

    ``acquire()`` loops until the exclusive create succeeds, taking over
    leases whose mtime is older than ``stale_after`` (a crashed writer
    never releases).  Two takeover racers both unlink; exactly one wins
    the re-create.  On timeout the caller proceeds *without* the lease —
    commits stay atomic regardless — and the overrun is reported through
    the return value.
    """

    def __init__(
        self,
        shard: Path,
        stale_after: float = LEASE_STALE_S,
        timeout: float = LEASE_WAIT_S,
    ):
        self.path = shard / LEASE_NAME
        self.stale_after = stale_after
        self.timeout = timeout
        self.held = False

    def acquire(self) -> bool:
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                if self._steal_if_stale():
                    continue
                if time.monotonic() >= deadline:
                    return False
                time.sleep(0.02)
                continue
            except OSError:
                # Unwritable shard (permissions, read-only mount): the
                # commit itself will surface the real error.
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"pid={os.getpid()} ts={time.time():.0f}\n")
            self.held = True
            return True

    def _steal_if_stale(self) -> bool:
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return True  # holder released between our create and stat
        if age <= self.stale_after:
            return False
        try:
            self.path.unlink()
        except OSError:
            pass  # the other racer's unlink won; retry the create
        return True

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "_ShardLease":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ResultStore:
    """On-disk result cache, one JSON file per experiment cell."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_store_dir()
        #: Entries this instance quarantined (renamed to ``*.corrupt``).
        self.quarantined = 0
        #: Batches committed without a shard lease (waited past
        #: ``LEASE_WAIT_S``); nonzero means heavy same-shard contention.
        self.lease_timeouts = 0

    # -- addressing --------------------------------------------------------

    def shard_for(self, fingerprint: str) -> Path:
        """The content-hash shard directory an entry lives in."""
        return self.root / fingerprint[:SHARD_WIDTH]

    def path_for(
        self, benchmark: str, scheme: str, fingerprint: str
    ) -> Path:
        """Content address: shard + readable prefix + fingerprint excerpt."""
        return self.shard_for(fingerprint) / (
            f"{benchmark}__{scheme}__{fingerprint[:24]}.json"
        )

    # -- read/write --------------------------------------------------------

    def get(
        self, benchmark: str, scheme: str, fingerprint: str
    ) -> Optional[RunResult]:
        """Stored result for a cell, or None on miss/corruption/mismatch.

        A *corrupt* entry (undecodable JSON or result payload) is
        quarantined on the spot — renamed to ``<entry>.corrupt`` with a
        ``.reason`` sidecar — so the damage is preserved and visible
        (``tools/store_gc.py``) instead of being silently rewritten by
        the re-simulation that follows the miss.
        """
        return self._read_entry(
            self.path_for(benchmark, scheme, fingerprint), fingerprint
        )

    def _read_entry(
        self, path: Path, fingerprint: str
    ) -> Optional[RunResult]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError) as error:
            self._quarantine(path, f"unreadable entry: {error!r}")
            return None
        # An unknown schema version or foreign fingerprint is valid data
        # that simply isn't ours to decode — a miss, not corruption.
        if payload.get("schema") != STORE_SCHEMA_VERSION:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        try:
            return RunResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as error:
            self._quarantine(path, f"undecodable result: {error!r}")
            return None

    def _quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a damaged entry aside as ``*.corrupt`` + reason sidecar."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None
        self.quarantined += 1
        try:
            target.with_name(target.name + ".reason").write_text(
                f"{reason}\nquarantined: {time.time():.0f}\n",
                encoding="utf-8",
            )
        except OSError:
            pass
        return target

    def put(
        self,
        benchmark: str,
        scheme: str,
        fingerprint: str,
        result: RunResult,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Atomically persist one cell's result; returns the entry path."""
        return self.put_many(
            [(benchmark, scheme, fingerprint, result, meta)]
        )[0]

    def put_many(
        self,
        entries: Iterable[Tuple],
    ) -> List[Path]:
        """Persist a batch of ``(benchmark, scheme, fingerprint, result)``
        — optionally ``(..., result, meta)`` — entries; returns their
        paths in order.

        ``meta`` is the optional execution-metadata block (see the
        module docstring); a 4-tuple writes an entry without one,
        exactly as before.

        Entries are grouped **per shard**: each shard is created once,
        its writer lease taken once, and its entries committed under it
        back to back.  Each commit is still an independent atomic
        rename (a crash mid-batch leaves a valid prefix, never a
        truncated file), so a lease that could not be acquired in time
        degrades to plain unserialised commits, counted in
        :attr:`lease_timeouts`.
        """
        entries = list(entries)
        if not entries:
            return []
        by_shard: Dict[Path, List[int]] = {}
        keyed = []
        for position, entry in enumerate(entries):
            benchmark, scheme, fingerprint, result = entry[:4]
            meta = entry[4] if len(entry) > 4 else None
            shard = self.shard_for(fingerprint)
            by_shard.setdefault(shard, []).append(position)
            keyed.append((benchmark, scheme, fingerprint, result, meta))
        paths: List[Optional[Path]] = [None] * len(entries)
        for shard, positions in by_shard.items():
            shard.mkdir(parents=True, exist_ok=True)
            lease = _ShardLease(shard)
            if not lease.acquire():
                self.lease_timeouts += 1
            try:
                for position in positions:
                    paths[position] = self._put_one(*keyed[position])
            finally:
                lease.release()
        return paths  # type: ignore[return-value]

    def _put_one(
        self,
        benchmark: str,
        scheme: str,
        fingerprint: str,
        result: RunResult,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        path = self.path_for(benchmark, scheme, fingerprint)
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "benchmark": benchmark,
            "scheme": scheme,
            "created": time.time(),
            "repro_version": _repro_version(),
            "result": result.to_dict(),
        }
        if meta:
            payload["meta"] = meta
        # The temp file lives in the shard so the commit rename never
        # crosses a filesystem boundary.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance -------------------------------------------------------

    def _glob_both(self, pattern: str) -> List[Path]:
        """Matches in the flat root (legacy) and in every shard."""
        if not self.root.is_dir():
            return []
        return sorted(
            list(self.root.glob(pattern))
            + list(self.root.glob(f"*/{pattern}"))
        )

    def entries(self) -> Iterator[StoreEntryInfo]:
        """Metadata for every ``*.json`` entry (all shards + flat root)."""
        for path in self._glob_both("*.json"):
            try:
                stat = path.stat()
                size, mtime = stat.st_size, stat.st_mtime
            except OSError:
                size, mtime = 0, 0.0
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                yield StoreEntryInfo(
                    path=path,
                    benchmark=payload.get("benchmark"),
                    scheme=payload.get("scheme"),
                    fingerprint=payload.get("fingerprint"),
                    schema=payload.get("schema"),
                    created=payload.get("created"),
                    size_bytes=size,
                    mtime=mtime,
                )
            except (OSError, ValueError):
                yield StoreEntryInfo(
                    path=path,
                    benchmark=None,
                    scheme=None,
                    fingerprint=None,
                    schema=None,
                    created=None,
                    corrupt=True,
                    size_bytes=size,
                    mtime=mtime,
                )

    def iter_meta(self) -> Iterator[Dict[str, object]]:
        """The ``meta`` block of every known-schema entry that has one.

        This is the cost model's warm-boot feed
        (:meth:`repro.sim.costmodel.CostModel.bootstrap_from_store`):
        entries written before metadata existed, corrupt files, and
        foreign schema versions are all skipped silently.
        """
        for path in self._glob_both("*.json"):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if payload.get("schema") != STORE_SCHEMA_VERSION:
                continue
            meta = payload.get("meta")
            if isinstance(meta, dict):
                yield meta

    def stale_tmp_files(self) -> List[Path]:
        """Leftover atomic-write temp files (a crashed writer's debris)."""
        return self._glob_both("*.tmp")

    def corrupt_files(self) -> List[Path]:
        """Quarantined entries (``*.corrupt``), excluding reason sidecars."""
        return [
            path
            for path in self._glob_both("*.corrupt")
            if path.suffix == ".corrupt"
        ]

    def stale_lease_files(self, now: Optional[float] = None) -> List[Path]:
        """Shard leases older than ``LEASE_STALE_S`` (dead writers).

        Live writers take these over on contact; this listing exists so
        ``tools/store_gc.py`` can surface (and sweep) them even when no
        writer ever comes back to that shard.
        """
        now = time.time() if now is None else now
        stale = []
        for path in self._glob_both(LEASE_NAME):
            try:
                if now - path.stat().st_mtime > LEASE_STALE_S:
                    stale.append(path)
            except OSError:
                continue
        return stale

    def quarantine_reason(self, path: Path) -> Optional[str]:
        """First line of a quarantined entry's reason sidecar, if any."""
        try:
            text = path.with_name(path.name + ".reason").read_text(
                encoding="utf-8"
            )
        except OSError:
            return None
        return text.splitlines()[0] if text else None

    def clear(self) -> ClearStats:
        """Delete every entry, stale temp file, and quarantined file.

        Returns per-kind counts (entries / tmp / corrupt) rather than one
        conflated number — a large ``tmp`` count means crashed writers,
        a large ``corrupt`` count means quarantined damage, and neither
        should masquerade as cache size.  Shard directories (and any
        leases in them) are removed too.
        """
        if not self.root.is_dir():
            return ClearStats()
        entries = tmp = corrupt = 0
        for path in self._glob_both("*.json"):
            entries += self._unlink(path)
        for path in self._glob_both("*.tmp"):
            tmp += self._unlink(path)
        for path in self.corrupt_files():
            corrupt += self._unlink(path)
            self._unlink(path.with_name(path.name + ".reason"))
        for path in self._glob_both(LEASE_NAME):
            self._unlink(path)
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # still holds someone else's files
        return ClearStats(entries=entries, tmp=tmp, corrupt=corrupt)

    @staticmethod
    def _unlink(path: Path) -> int:
        try:
            path.unlink()
            return 1
        except OSError:
            return 0

    def __len__(self) -> int:
        return len(self._glob_both("*.json"))

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"


def _repro_version() -> str:
    try:
        import repro

        return getattr(repro, "__version__", "unknown")
    except Exception:
        return "unknown"
