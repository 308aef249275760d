#!/usr/bin/env python
"""List or prune entries of the persistent experiment result store.

The store (default ``results/store/``, see ``repro.sim.store``) grows one
JSON file per simulated ``(benchmark, scheme, config-fingerprint)`` cell
and is never pruned automatically — entries stay valid for as long as
their fingerprint matches a configuration someone still runs.  This tool
is the maintenance side:

List everything::

    PYTHONPATH=src python tools/store_gc.py

Prune entries older than 30 days::

    PYTHONPATH=src python tools/store_gc.py --older-than-days 30 --prune

Prune corrupt entries and entries with unknown schema versions (left by
older/newer checkouts)::

    PYTHONPATH=src python tools/store_gc.py --unknown-schema --prune

Cap the store at 64 MiB, evicting least-recently-written entries first::

    PYTHONPATH=src python tools/store_gc.py --max-bytes 67108864 --prune

Without ``--prune`` the tool only reports what it *would* delete.  To
wipe the store completely, pass ``--all --prune`` (equivalent to
``repro.sim.experiment.clear_cache()``'s store side).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.sim.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreEntryInfo,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="List or prune persistent experiment-store entries."
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="PATH",
        help="store directory (default: results/store or $REPRO_STORE_DIR)",
    )
    parser.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        metavar="N",
        help="select entries created more than N days ago",
    )
    parser.add_argument(
        "--unknown-schema",
        action="store_true",
        help="select corrupt entries and entries whose schema version is "
        f"not the current one ({STORE_SCHEMA_VERSION})",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="select the oldest entries (by file mtime, LRU) until the "
        "store's total entry bytes fit under N",
    )
    parser.add_argument(
        "--all", action="store_true", help="select every entry"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_table",
        help="print every entry as one aligned table (file, cell, "
        "fingerprint, schema version, entry bytes, shard and its total "
        "bytes, created age)",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="actually delete the selected entries (default: dry run)",
    )
    return parser


def selected(args, entry: StoreEntryInfo) -> bool:
    if args.all:
        return True
    if args.unknown_schema and (entry.corrupt or not entry.known_schema):
        return True
    if (
        args.older_than_days is not None
        and entry.age_days() > args.older_than_days
    ):
        return True
    return False


def describe(entry: StoreEntryInfo) -> str:
    if entry.corrupt:
        detail = "CORRUPT"
    else:
        schema = (
            f"v{entry.schema}"
            if entry.known_schema
            else f"UNKNOWN SCHEMA v{entry.schema}"
        )
        fingerprint = (entry.fingerprint or "?")[:12]
        detail = (
            f"{entry.benchmark}/{entry.scheme} fp={fingerprint} "
            f"{schema} age={entry.age_days():.1f}d"
        )
    return f"{entry.path.name}: {detail}"


def shard_of(entry: StoreEntryInfo) -> str:
    """The content-hash shard an entry lives in (``.`` for flat root)."""
    parent = entry.path.parent.name
    return parent if len(parent) == 2 else "."


def shard_bytes(entries: List[StoreEntryInfo]) -> dict:
    """Total entry bytes per shard directory."""
    totals: dict = {}
    for entry in entries:
        shard = shard_of(entry)
        totals[shard] = totals.get(shard, 0) + entry.size_bytes
    return totals


def render_listing(entries: List[StoreEntryInfo]) -> str:
    """One aligned table over all entries: cell, schema, size, age —
    plus each row's shard and the shard's total bytes."""
    totals = shard_bytes(entries)
    headers = (
        "file",
        "benchmark",
        "scheme",
        "fingerprint",
        "schema",
        "bytes",
        "shard",
        "shard-bytes",
        "age",
    )
    rows = [headers]
    for entry in entries:
        shard = shard_of(entry)
        if entry.corrupt:
            rows.append(
                (
                    entry.path.name,
                    "CORRUPT",
                    "-",
                    "-",
                    "-",
                    str(entry.size_bytes),
                    shard,
                    str(totals[shard]),
                    "-",
                )
            )
            continue
        schema = f"v{entry.schema}" + ("" if entry.known_schema else " (?)")
        rows.append(
            (
                entry.path.name,
                entry.benchmark or "?",
                entry.scheme or "?",
                (entry.fingerprint or "?")[:12],
                schema,
                str(entry.size_bytes),
                shard,
                str(totals[shard]),
                f"{entry.age_days():.1f}d",
            )
        )
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def over_byte_cap(
    entries: List[StoreEntryInfo], max_bytes: int
) -> List[StoreEntryInfo]:
    """Least-recently-written entries whose eviction brings the store's
    total entry bytes under ``max_bytes``.

    LRU by file mtime: the newest entries are kept, the oldest go first.
    Corrupt entries sort with their mtime like everything else (they
    carry no payload worth protecting).  Ties break by path for
    determinism.
    """
    total = sum(entry.size_bytes for entry in entries)
    if total <= max_bytes:
        return []
    victims: List[StoreEntryInfo] = []
    for entry in sorted(
        entries, key=lambda e: (e.mtime, str(e.path))
    ):
        if total <= max_bytes:
            break
        victims.append(entry)
        total -= entry.size_bytes
    return victims


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    store = ResultStore(args.store_dir)
    if not store.root.is_dir():
        print(f"store {store.root} does not exist; nothing to do")
        return 0
    if args.list_table:
        entries = list(store.entries())
        if entries:
            print(render_listing(entries))
        print(
            f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
            f"in {store.root}"
        )
        quarantined = store.corrupt_files()
        if quarantined:
            print()
            print(f"{len(quarantined)} quarantined (corrupt) file(s):")
            for path in quarantined:
                reason = store.quarantine_reason(path) or "no reason recorded"
                print(f"  {path.name}: {reason}")
            print("  (prune with --all --prune)")
        stale = store.stale_tmp_files()
        if stale:
            print()
            print(
                f"{len(stale)} leftover .tmp file(s) — debris of crashed "
                "atomic writes:"
            )
            for path in stale:
                print(f"  {path.name}")
            print("  (prune with --all --prune)")
        return 0
    filtering = (
        args.all
        or args.unknown_schema
        or args.older_than_days is not None
        or args.max_bytes is not None
    )
    total = 0
    all_entries: List[StoreEntryInfo] = []
    chosen: List[StoreEntryInfo] = []
    for entry in store.entries():
        total += 1
        all_entries.append(entry)
        if not filtering:
            print(describe(entry))
        elif selected(args, entry):
            chosen.append(entry)
    if args.max_bytes is not None:
        already = {str(entry.path) for entry in chosen}
        chosen.extend(
            entry
            for entry in over_byte_cap(all_entries, max(0, args.max_bytes))
            if str(entry.path) not in already
        )
    if not filtering:
        print(f"{total} entr{'y' if total == 1 else 'ies'} in {store.root}")
        return 0
    verb = "pruning" if args.prune else "would prune"
    for entry in chosen:
        print(f"{verb} {describe(entry)}")
        if args.prune:
            try:
                entry.path.unlink()
            except OSError as error:
                print(f"  failed: {error}", file=sys.stderr)
    extra = 0
    if args.all:
        # A full wipe also clears quarantined files (with their reason
        # sidecars) and crashed-writer .tmp debris.
        for path in store.corrupt_files():
            reason_path = path.with_name(path.name + ".reason")
            print(f"{verb} {path.name}: quarantined")
            extra += 1
            if args.prune:
                for victim in (path, reason_path):
                    try:
                        victim.unlink()
                    except OSError:
                        pass
        for path in store.stale_tmp_files():
            print(f"{verb} {path.name}: leftover .tmp")
            extra += 1
            if args.prune:
                try:
                    path.unlink()
                except OSError as error:
                    print(f"  failed: {error}", file=sys.stderr)
    suffix = f" (+{extra} corrupt/tmp file(s))" if extra else ""
    print(
        f"{verb} {len(chosen)} of {total} "
        f"entr{'y' if total == 1 else 'ies'} in {store.root}{suffix}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
