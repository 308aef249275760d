"""Unit tests for trace events and interval utilities."""

import pytest

from repro.trace.events import BlockEvent
from repro.trace.stream import IntervalSplitter


def event(n=10, loads=0, stores=0, branch_pc=0x4000, taken=True):
    return BlockEvent(
        "m", "b", n, [0x100] * loads, [0x200] * stores,
        branch_pc, taken,
    )


class TestBlockEvent:
    def test_memory_refs(self):
        ev = event(loads=3, stores=2)
        assert ev.memory_refs == 5

    def test_block_pc_defaults_to_branch_pc(self):
        ev = event(branch_pc=0x4242)
        assert ev.block_pc == 0x4242

    def test_block_pc_explicit(self):
        ev = BlockEvent("m", "b", 5, [], [], None, True, block_pc=0x9000)
        assert ev.block_pc == 0x9000
        assert ev.branch_pc is None


class TestIntervalSplitter:
    def test_fires_at_boundaries(self):
        fired = []
        splitter = IntervalSplitter(100, lambda i, n: fired.append((i, n)))
        splitter.advance(60)
        assert fired == []
        splitter.advance(60)
        assert fired == [(0, 100)]
        assert splitter.instructions_in_current == 20

    def test_large_block_crosses_multiple(self):
        fired = []
        splitter = IntervalSplitter(10, lambda i, n: fired.append(i))
        crossed = splitter.advance(35)
        assert crossed == 3
        assert fired == [0, 1, 2]
        assert splitter.instructions_in_current == 5

    def test_flush_emits_partial(self):
        fired = []
        splitter = IntervalSplitter(
            100, lambda i, n: fired.append((i, n))
        )
        splitter.advance(30)
        splitter.flush()
        assert fired == [(0, 30)]
        splitter.flush()  # idempotent
        assert fired == [(0, 30)]

    def test_exact_multiple(self):
        fired = []
        splitter = IntervalSplitter(50, lambda i, n: fired.append(i))
        splitter.advance(100)
        assert fired == [0, 1]
        assert splitter.instructions_in_current == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            IntervalSplitter(0, lambda i, n: None)
