"""Resizable set-associative write-back cache.

Size reconfiguration follows the paper's model (§2.1): shrinking a cache
requires writing dirty lines back to the lower hierarchy level, which is the
dominant reconfiguration overhead.  We flush on *every* resize (dirty lines
written back, all lines invalidated) — a strict upper bound on the paper's
cost, applied identically to both adaptation schemes (DESIGN.md §6).

Lines are tracked per set as insertion-ordered dicts mapping line number to
a dirty bit; LRU touch is delete-and-reinsert.  ``_mru`` records, per set,
the line last touched: invariant, ``_mru[i]`` is ``None`` or the last key
of ``_sets[i]``.  An access that hits that line skips the re-insert (it
would change nothing); a store hit there only sets the dirty bit.  Every
path that touches a line records it, and ``flush``/``resize`` reset the
record.  The access loops are written for speed — they process whole
address lists per call, since they execute millions of times per
experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class CacheStats:
    """Cumulative access statistics (monotonic over the cache's lifetime)."""

    __slots__ = (
        "read_accesses",
        "read_misses",
        "write_accesses",
        "write_misses",
        "writebacks",
        "fills",
        "flushes",
        "flushed_dirty_lines",
        "resizes",
    )

    def __init__(self) -> None:
        self.read_accesses = 0
        self.read_misses = 0
        self.write_accesses = 0
        self.write_misses = 0
        self.writebacks = 0
        self.fills = 0
        self.flushes = 0
        self.flushed_dirty_lines = 0
        self.resizes = 0

    @property
    def accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.read_accesses,
            self.read_misses,
            self.write_accesses,
            self.write_misses,
            self.writebacks,
            self.flushed_dirty_lines,
        )

    def __repr__(self) -> str:
        return (
            f"CacheStats(accesses={self.accesses}, misses={self.misses}, "
            f"miss_rate={self.miss_rate:.4f}, writebacks={self.writebacks})"
        )


class AccessResult:
    """Outcome of a batched access: traffic to forward to the next level.

    ``miss_lines`` are line-aligned addresses to fetch from below (reads);
    ``writeback_lines`` are dirty victims to write below (writes).
    """

    __slots__ = ("read_hits", "read_misses", "write_hits", "write_misses",
                 "miss_lines", "writeback_lines")

    def __init__(
        self,
        read_hits: int,
        read_misses: int,
        write_hits: int,
        write_misses: int,
        miss_lines: List[int],
        writeback_lines: List[int],
    ):
        self.read_hits = read_hits
        self.read_misses = read_misses
        self.write_hits = write_hits
        self.write_misses = write_misses
        self.miss_lines = miss_lines
        self.writeback_lines = writeback_lines

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def accesses(self) -> int:
        return (
            self.read_hits + self.read_misses
            + self.write_hits + self.write_misses
        )


class Cache:
    """Set-associative write-back, write-allocate cache with resizable
    capacity at fixed associativity and line size (paper Table 2).

    ``sizes`` lists the legal capacities (bytes); ``size`` must be one of
    them.  Resizing changes the number of sets, so lines would generally map
    differently afterwards — hence the full flush on resize.
    """

    #: Resize semantics: "selective" keeps reachable lines (selective-sets
    #: hardware); "flush" invalidates everything on any resize (the
    #: conservative model — a strict upper bound on reconfiguration cost).
    RESIZE_POLICIES = ("selective", "flush")

    def __init__(
        self,
        name: str,
        size: int,
        line_size: int,
        associativity: int,
        sizes: Optional[Sequence[int]] = None,
        resize_policy: str = "selective",
    ):
        if not _is_power_of_two(line_size):
            raise ValueError(f"line size must be a power of two: {line_size}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1: {associativity}")
        if resize_policy not in self.RESIZE_POLICIES:
            raise ValueError(
                f"resize_policy must be one of {self.RESIZE_POLICIES}, "
                f"got {resize_policy!r}"
            )
        self.resize_policy = resize_policy
        self.name = name
        self.line_size = line_size
        self.associativity = associativity
        self.sizes: Tuple[int, ...] = tuple(sorted(sizes or [size], reverse=True))
        for s in self.sizes:
            self._check_geometry(s)
        if size not in self.sizes:
            raise ValueError(
                f"size {size} not among configured sizes {self.sizes}"
            )
        self.stats = CacheStats()
        self._line_shift = line_size.bit_length() - 1
        self.size = 0  # set by _configure
        self._sets: List[Dict[int, bool]] = []
        self._mru: List[Optional[int]] = []
        self._set_mask = 0
        self._configure(size)

    def _check_geometry(self, size: int) -> None:
        n_sets, rem = divmod(size, self.line_size * self.associativity)
        if rem or not _is_power_of_two(n_sets):
            raise ValueError(
                f"cache size {size} does not yield a power-of-two set count "
                f"with line={self.line_size}, assoc={self.associativity}"
            )

    def _configure(self, size: int) -> None:
        n_sets = size // (self.line_size * self.associativity)
        self.size = size
        self._sets = [dict() for _ in range(n_sets)]
        self._mru = [None] * n_sets
        self._set_mask = n_sets - 1

    # -- geometry ---------------------------------------------------------

    @property
    def n_sets(self) -> int:
        return len(self._sets)

    @property
    def n_lines(self) -> int:
        return self.n_sets * self.associativity

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def dirty_lines(self) -> int:
        return sum(1 for s in self._sets for dirty in s.values() if dirty)

    def contains(self, addr: int) -> bool:
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def is_dirty(self, addr: int) -> bool:
        line = addr >> self._line_shift
        return self._sets[line & self._set_mask].get(line, False)

    # -- access paths -------------------------------------------------------

    def access_many(
        self, loads: Sequence[int], stores: Sequence[int]
    ) -> AccessResult:
        """Process a batch of load then store word addresses.

        Returns the traffic to forward to the next level.  Misses allocate
        (write-allocate for stores); LRU victims that are dirty produce
        writebacks.
        """
        line_shift = self._line_shift
        set_mask = self._set_mask
        sets = self._sets
        mru = self._mru
        assoc = self.associativity
        miss_lines: List[int] = []
        wb_lines: List[int] = []

        read_hits = 0
        read_misses = 0
        for addr in loads:
            line = addr >> line_shift
            i = line & set_mask
            s = sets[i]
            if line in s:
                if mru[i] != line:
                    s[line] = s.pop(line)  # LRU touch, keep dirty bit
                    mru[i] = line
                read_hits += 1
            else:
                read_misses += 1
                miss_lines.append(line << line_shift)
                if len(s) >= assoc:
                    victim = next(iter(s))
                    if s.pop(victim):
                        wb_lines.append(victim << line_shift)
                s[line] = False
                mru[i] = line

        write_hits = 0
        write_misses = 0
        for addr in stores:
            line = addr >> line_shift
            i = line & set_mask
            s = sets[i]
            if line in s:
                if mru[i] != line:
                    s.pop(line)
                    mru[i] = line
                s[line] = True  # LRU touch + mark dirty
                write_hits += 1
            else:
                write_misses += 1
                miss_lines.append(line << line_shift)
                if len(s) >= assoc:
                    victim = next(iter(s))
                    if s.pop(victim):
                        wb_lines.append(victim << line_shift)
                s[line] = True
                mru[i] = line

        st = self.stats
        st.read_accesses += read_hits + read_misses
        st.read_misses += read_misses
        st.write_accesses += write_hits + write_misses
        st.write_misses += write_misses
        st.writebacks += len(wb_lines)
        st.fills += len(miss_lines)
        return AccessResult(
            read_hits, read_misses, write_hits, write_misses,
            miss_lines, wb_lines,
        )

    def access(self, addr: int, is_store: bool = False) -> bool:
        """Single-access convenience path (tests, tools); returns hit."""
        if is_store:
            result = self.access_many((), (addr,))
            return result.write_hits == 1
        result = self.access_many((addr,), ())
        return result.read_hits == 1

    # -- reconfiguration ----------------------------------------------------

    def flush(self) -> List[int]:
        """Invalidate everything; return dirty line addresses written back."""
        line_shift = self._line_shift
        dirty = [
            line << line_shift
            for s in self._sets
            for line, d in s.items()
            if d
        ]
        for s in self._sets:
            s.clear()
        self._mru = [None] * len(self._sets)
        self.stats.flushes += 1
        self.stats.flushed_dirty_lines += len(dirty)
        self.stats.writebacks += len(dirty)
        return dirty

    def resize(self, new_size: int) -> List[int]:
        """Reconfigure to ``new_size``; returns dirty lines written back.

        Selective-sets semantics: shrinking disables the high-numbered set
        arrays, so their lines are flushed (dirty ones written back) while
        lines in surviving sets remain resident and reachable (their new
        index bits equal their old ones).  Growing re-enables arrays; a
        resident line stays reachable only if its index under the wider
        mask still points at the array it occupies — others are flushed.
        This matches the paper's cost model (§2.1: "dirty cache lines must
        be written back") without the full-flush pessimism.

        Resizing to the current size is a no-op.
        """
        if new_size not in self.sizes:
            raise ValueError(
                f"{self.name}: size {new_size} not in {self.sizes}"
            )
        if new_size == self.size:
            return []
        self.stats.resizes += 1
        if self.resize_policy == "flush":
            dirty = self.flush()
            self._configure(new_size)
            return dirty
        old_sets = self._sets
        line_shift = self._line_shift
        new_n_sets = new_size // (self.line_size * self.associativity)
        new_mask = new_n_sets - 1
        dirty: List[int] = []
        invalidated = 0
        if new_n_sets < len(old_sets):
            # Shrink: sets [new_n_sets:] are disabled and flushed.
            surviving = old_sets[:new_n_sets]
            for s in old_sets[new_n_sets:]:
                for line, is_dirty in s.items():
                    if is_dirty:
                        dirty.append(line << line_shift)
                    else:
                        invalidated += 1
        else:
            # Grow: keep lines whose widened index matches their array.
            surviving = old_sets + [
                dict() for _ in range(new_n_sets - len(old_sets))
            ]
            for index, s in enumerate(old_sets):
                stale = [
                    line for line in s if (line & new_mask) != index
                ]
                for line in stale:
                    if s.pop(line):
                        dirty.append(line << line_shift)
                    else:
                        invalidated += 1
        self.size = new_size
        self._sets = surviving
        self._mru = [None] * new_n_sets
        self._set_mask = new_mask
        self.stats.flushes += 1
        self.stats.flushed_dirty_lines += len(dirty)
        self.stats.writebacks += len(dirty)
        return dirty

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, size={self.size}, line={self.line_size}, "
            f"assoc={self.associativity}, sets={self.n_sets})"
        )
