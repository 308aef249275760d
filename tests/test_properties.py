"""Property-based tests (hypothesis) on core data structures and
invariants."""

import random
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuning import (
    TuningOutcome,
    choose_best_robust,
    make_config_list,
)
from repro.isa.program import LoopDecider
from repro.phases.bbv import BBVAccumulator, manhattan_distance, normalize
from repro.trace.stream import IntervalSplitter
from repro.uarch.cache import Cache, CacheStats
from repro.uarch.registers import ReconfigurationGuard
from repro.vm.blockjit import compile_fused_block, line_touch
from repro.vm.fastvm import _address_path, _miss_path
from repro.workloads.patterns import (
    MixedBehavior,
    PointerChaseBehavior,
    StackBehavior,
    StridedBehavior,
    WanderingWindowBehavior,
    WorkingSetBehavior,
)
from repro.workloads.synthetic import random_program

KB = 1024

addresses = st.lists(
    st.integers(min_value=0, max_value=1 << 24), min_size=0, max_size=60
)


class TestCacheProperties:
    @given(loads=addresses, stores=addresses)
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, loads, stores):
        cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        cache.access_many(loads, stores)
        assert cache.resident_lines <= cache.n_lines
        for s in cache._sets:
            assert len(s) <= cache.associativity

    @given(loads=addresses)
    @settings(max_examples=60, deadline=None)
    def test_most_recent_access_is_resident(self, loads):
        cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        for addr in loads:
            cache.access(addr)
            assert cache.contains(addr)

    @given(
        loads=addresses,
        sizes=st.lists(
            st.sampled_from([8 * KB, 4 * KB, 2 * KB, 1 * KB]),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_resize_sequence_keeps_lookups_consistent(self, loads, sizes):
        cache = Cache(
            "c", 8 * KB, 64, 2, sizes=(8 * KB, 4 * KB, 2 * KB, 1 * KB)
        )
        cache.access_many(loads, ())
        for size in sizes:
            cache.resize(size)
            # Every line the cache claims to hold must be a hit when
            # accessed (no stale placements after remapping).
            for addr in loads:
                if cache.contains(addr):
                    assert cache.access(addr)
            assert cache.resident_lines <= cache.n_lines

    @given(loads=addresses, stores=addresses)
    @settings(max_examples=60, deadline=None)
    def test_stats_consistency(self, loads, stores):
        cache = Cache("c", 2 * KB, 64, 2, sizes=(2 * KB,))
        result = cache.access_many(loads, stores)
        assert result.accesses == len(loads) + len(stores)
        assert (
            result.read_hits + result.read_misses == len(loads)
        )
        assert len(result.miss_lines) == result.misses

    @given(stores=addresses)
    @settings(max_examples=60, deadline=None)
    def test_flush_returns_exactly_dirty_lines(self, stores):
        cache = Cache("c", 2 * KB, 64, 2, sizes=(2 * KB,))
        cache.access_many((), stores)
        dirty_count = cache.dirty_lines
        flushed = cache.flush()
        assert len(flushed) == dirty_count
        assert cache.resident_lines == 0


class TestIntervalSplitterProperties:
    @given(
        steps=st.lists(
            st.integers(min_value=1, max_value=500),
            min_size=1, max_size=60,
        ),
        interval=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_intervals_partition_the_stream(self, steps, interval):
        emitted = []
        splitter = IntervalSplitter(
            interval, lambda i, n: emitted.append(n)
        )
        for step in steps:
            splitter.advance(step)
        splitter.flush()
        assert sum(emitted) == sum(steps)
        # All but the final (partial) interval are exactly full.
        for n in emitted[:-1]:
            assert n == interval

    @given(
        steps=st.lists(
            st.integers(min_value=1, max_value=100),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_indices_are_sequential(self, steps):
        indices = []
        splitter = IntervalSplitter(17, lambda i, n: indices.append(i))
        for step in steps:
            splitter.advance(step)
        assert indices == list(range(len(indices)))


class TestGuardProperties:
    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1, max_size=40,
        ),
        interval=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_granted_requests_respect_interval(self, times, interval):
        guard = ReconfigurationGuard()
        guard.register("cu", interval)
        granted_at = []
        for t in sorted(times):
            if guard.request("cu", t):
                granted_at.append(t)
        for a, b in zip(granted_at, granted_at[1:]):
            assert b - a >= interval


class TestBBVProperties:
    @given(
        observations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_conserved_up_to_saturation(self, observations):
        acc = BBVAccumulator(n_buckets=8, counter_bits=24)
        for pc, n in observations:
            acc.observe(pc, n)
        if not acc.saturations:
            assert sum(acc.peek()) == sum(n for _, n in observations)

    @given(
        a=st.lists(st.integers(min_value=0, max_value=1000),
                   min_size=4, max_size=4),
        b=st.lists(st.integers(min_value=0, max_value=1000),
                   min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_normalized_distance_bounds(self, a, b):
        distance = manhattan_distance(normalize(a), normalize(b))
        assert -1e-9 <= distance <= 2.0 + 1e-9

    @given(
        v=st.lists(st.integers(min_value=0, max_value=1000),
                   min_size=1, max_size=16)
    )
    @settings(max_examples=100, deadline=None)
    def test_normalize_unit_mass(self, v):
        total = sum(normalize(v))
        if sum(v) > 0:
            assert abs(total - 1.0) < 1e-9
        else:
            assert total == 0.0


class TestTuningProperties:
    @given(counts=st.lists(st.integers(min_value=1, max_value=4),
                           min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_config_list_is_exactly_the_product(self, counts):
        configs = make_config_list(counts)
        expected = 1
        for n in counts:
            expected *= n
        assert len(configs) == expected
        assert len(set(configs)) == expected
        assert configs[0] == tuple([0] * len(counts))

    @given(
        ipcs=st.lists(
            st.floats(min_value=0.1, max_value=4.0),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_choose_best_robust_never_picks_deep_loser(self, ipcs):
        outcomes = [
            TuningOutcome((i,), ipc, 1.0 / (i + 1), 1000)
            for i, ipc in enumerate(ipcs)
        ]
        best = choose_best_robust(outcomes, 0.02)
        assert best is not None
        ordered = sorted(ipcs)
        median = (
            ordered[len(ordered) // 2]
            if len(ordered) % 2
            else 0.5 * (ordered[len(ordered) // 2 - 1]
                        + ordered[len(ordered) // 2])
        )
        # The selected config is never more than the threshold below the
        # median (unless nothing qualifies at all, in which case it is
        # the fastest).
        fastest = max(ipcs)
        assert (
            best.ipc >= median * 0.98 - 1e-9 or best.ipc == fastest
        )


class TestWorkloadProperties:
    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=5.0),
            min_size=1, max_size=4,
        ),
        n_loads=st.integers(min_value=0, max_value=50),
        n_stores=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_behavior_conserves_counts(
        self, weights, n_loads, n_stores
    ):
        behavior = MixedBehavior(
            [(StackBehavior(), w) for w in weights]
        )
        rng = random.Random(1)
        loads, stores = behavior.generate(
            rng, 0x1000, 0x2000, 0, n_loads, n_stores
        )
        assert len(loads) == n_loads
        assert len(stores) == n_stores

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_always_validate(self, seed):
        program = random_program(seed)
        assert program.is_laid_out

    @given(
        trips=st.integers(min_value=1, max_value=30),
        draws=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_loop_decider_taken_run_lengths(self, trips, draws):
        decider = LoopDecider(trips)
        rng = random.Random(0)
        state = decider.initial_state(rng)
        run = 0
        for _ in range(draws):
            taken, state = decider.decide(state, rng)
            if taken:
                run += 1
                assert run <= trips - 1
            else:
                run = 0


# ---------------------------------------------------------------------------
# Kernel-facing invariants (reference vs fast simulation paths)
# ---------------------------------------------------------------------------

#: Every fusable behaviour family, with parameter ranges wide enough to
#: hit unrolled and looped emission, multi-set caches, and wrap-around
#: arithmetic (Strided/WanderingWindow offsets).
fusable_behaviors = st.one_of(
    st.builds(StackBehavior, st.integers(min_value=16, max_value=4096)),
    st.builds(
        WorkingSetBehavior,
        st.integers(min_value=64, max_value=8192),
        st.floats(min_value=0.05, max_value=0.95),
    ),
    st.builds(PointerChaseBehavior, st.integers(min_value=16, max_value=4096)),
    st.builds(
        StridedBehavior,
        st.integers(min_value=64, max_value=4096),
        st.sampled_from([4, 8, 16, 64]),
    ),
    st.builds(
        WanderingWindowBehavior,
        st.integers(min_value=64, max_value=1024),
        st.integers(min_value=2048, max_value=16384),
        st.integers(min_value=16, max_value=512),
    ),
)


class TestFusedClosureLockstep:
    """The codegen'd fused closures (fast kernel) against the readable
    ``generate`` + ``access_many`` pair (reference kernel), in lockstep:
    same RNG consumption, same cache state, same traffic."""

    @given(
        behavior=fusable_behaviors,
        n_loads=st.integers(min_value=0, max_value=24),
        n_stores=st.integers(min_value=0, max_value=24),
        seed=st.integers(min_value=0, max_value=10**6),
        iteration=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=120, deadline=None)
    def test_fused_closure_matches_reference_pair(
        self, behavior, n_loads, n_stores, seed, iteration
    ):
        fused = compile_fused_block(behavior, n_loads, n_stores)
        assert fused is not None
        ref_cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        fast_cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        ref_rng = random.Random(seed)
        fast_rng = random.Random(seed)
        frame_base, region_base = 0x1000_0000, 0x2000_0000
        loads, stores = behavior.generate(
            ref_rng, frame_base, region_base, iteration, n_loads, n_stores
        )
        result = ref_cache.access_many(loads, stores)
        read_misses, write_misses, miss_lines, wb_lines = fused(
            fast_rng, frame_base, region_base, iteration, fast_cache
        )
        # Identical RNG stream consumption...
        assert fast_rng.getstate() == ref_rng.getstate()
        # ...identical traffic (None means "empty" in the fused ABI)...
        assert (read_misses, write_misses) == (
            result.read_misses, result.write_misses
        )
        assert (miss_lines or []) == result.miss_lines
        assert (wb_lines or []) == result.writeback_lines
        # ...and identical cache state, dirty bits and LRU order included
        # (dict order is insertion order, which *is* the LRU order here).
        assert list(fast_cache._sets[0].items()) == list(
            ref_cache._sets[0].items()
        )
        assert fast_cache._sets == ref_cache._sets
        assert_mru_invariant(fast_cache)

    @given(
        behavior=fusable_behaviors,
        weight=st.floats(min_value=0.1, max_value=4.0),
        n_loads=st.integers(min_value=0, max_value=10),
        n_stores=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
        iteration=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=120, deadline=None)
    def test_mixed_behavior_matches_reference_pair(
        self, behavior, weight, n_loads, n_stores, seed, iteration
    ):
        """Two-phase mixed fusion: draws in ``generate`` order (per
        component), cache transitions in ``access_many`` order (all
        loads, then all stores) — stream, traffic, and state lockstep."""
        mixed = MixedBehavior([(behavior, weight), (StackBehavior(), 1.0)])
        fused = compile_fused_block(mixed, n_loads, n_stores)
        assert fused is not None
        ref_cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        fast_cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        ref_rng = random.Random(seed)
        fast_rng = random.Random(seed)
        frame_base, region_base = 0x1000_0000, 0x2000_0000
        loads, stores = mixed.generate(
            ref_rng, frame_base, region_base, iteration, n_loads, n_stores
        )
        result = ref_cache.access_many(loads, stores)
        read_misses, write_misses, miss_lines, wb_lines = fused(
            fast_rng, frame_base, region_base, iteration, fast_cache
        )
        assert fast_rng.getstate() == ref_rng.getstate()
        assert (read_misses, write_misses) == (
            result.read_misses, result.write_misses
        )
        assert (miss_lines or []) == result.miss_lines
        assert (wb_lines or []) == result.writeback_lines
        assert fast_cache._sets == ref_cache._sets
        assert_mru_invariant(fast_cache)

    def test_oversized_mixed_blocks_keep_the_list_path(self):
        """Mixes beyond the unroll budget stay unfused (no loop form
        exists for the two-phase draw buffer)."""
        mixed = MixedBehavior(
            [(WorkingSetBehavior(512), 1.0), (StackBehavior(), 1.0)]
        )
        assert compile_fused_block(mixed, 20, 10) is None


def l2_miss_path(cache):
    """The fast kernel's miss helper (``fastvm._miss_path``) with
    ``cache`` as the L2: ``drive(loads, stores)`` sends ``loads`` in as
    L1D fills (reads) and ``stores`` as L1D writebacks (writes)."""
    namespace = types.SimpleNamespace
    machine = namespace(
        hierarchy=namespace(
            l1d=namespace(stats=CacheStats()),
            l2=cache,
            memory_reads=0,
            memory_writes=0,
        ),
        energy=namespace(
            l1d=namespace(_read_nj=1.0, _write_nj=1.0),
            l2=namespace(dynamic_nj=0.0, _read_nj=1.0, _write_nj=1.0),
            memory_nj=0.0,
            memory_access_nj=1.0,
        ),
    )
    fills, writebacks = [], []
    miss = _miss_path(machine, fills, writebacks)

    def drive(loads, stores):
        fills.extend(loads)
        writebacks.extend(stores)
        miss(0, 0.0, 0.0, 0, 0, 1.0, 1.0)

    return drive


class TestCacheInvariantsUnderKernelPaths:
    """ISSUE invariants (misses <= accesses, snapshot monotonicity,
    resize preserves access totals) exercised through *both* batched
    paths the kernels use: the reference's ``access_many`` and the fast
    kernel's L2 miss helper."""

    @staticmethod
    def _drive(cache, loads, stores, path):
        if path == "access_many":
            cache.access_many(loads, stores)
        else:
            l2_miss_path(cache)(loads, stores)

    @given(
        loads=addresses,
        stores=addresses,
        path=st.sampled_from(["access_many", "miss"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_misses_never_exceed_accesses(self, loads, stores, path):
        cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        self._drive(cache, loads, stores, path)
        stats = cache.stats
        assert stats.misses <= stats.accesses
        assert stats.read_misses <= stats.read_accesses
        assert stats.write_misses <= stats.write_accesses

    @given(
        batches=st.lists(
            st.tuples(addresses, addresses), min_size=1, max_size=8
        ),
        path=st.sampled_from(["access_many", "miss"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_snapshot_monotonicity(self, batches, path):
        cache = Cache("c", 1 * KB, 64, 2, sizes=(1 * KB,))
        previous = cache.stats.snapshot()
        for loads, stores in batches:
            self._drive(cache, loads, stores, path)
            current = cache.stats.snapshot()
            assert all(b >= a for a, b in zip(previous, current))
            previous = current

    @given(
        loads=addresses,
        stores=addresses,
        size=st.sampled_from([4 * KB, 2 * KB, 1 * KB]),
        policy=st.sampled_from(["selective", "flush"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_resize_preserves_access_totals(self, loads, stores, size, policy):
        cache = Cache(
            "c", 8 * KB, 64, 2,
            sizes=(8 * KB, 4 * KB, 2 * KB, 1 * KB),
            resize_policy=policy,
        )
        cache.access_many(loads, stores)
        before = (
            cache.stats.read_accesses,
            cache.stats.read_misses,
            cache.stats.write_accesses,
            cache.stats.write_misses,
        )
        cache.resize(size)
        after = (
            cache.stats.read_accesses,
            cache.stats.read_misses,
            cache.stats.write_accesses,
            cache.stats.write_misses,
        )
        assert after == before
        assert cache.resident_lines <= cache.n_lines


# ---------------------------------------------------------------------------
# The MRU record against a plain LRU model
# ---------------------------------------------------------------------------


def assert_mru_invariant(cache):
    """``_mru[i]`` is ``None`` or the last line of set ``i``."""
    assert len(cache._mru) == len(cache._sets)
    for mru, s in zip(cache._mru, cache._sets):
        assert mru is None or (s and mru == next(reversed(s))), (mru, s)


class _LruModel:
    """The cache's sets kept by plain pop-and-re-insert LRU, with no MRU
    record: every access touches, every miss evicts the set's first
    line when it is full."""

    def __init__(self, cache):
        self.line_shift = cache._line_shift
        self.assoc = cache.associativity
        self.sets = [dict() for _ in cache._sets]

    def touch(self, addr, store):
        line = addr >> self.line_shift
        s = self.sets[line & (len(self.sets) - 1)]
        if line in s:
            dirty = s.pop(line)
            s[line] = True if store else dirty
            return
        if len(s) >= self.assoc:
            s.pop(next(iter(s)))
        s[line] = store

    def flush(self):
        for s in self.sets:
            s.clear()

    def resize(self, n_sets, policy):
        if n_sets == len(self.sets):
            return
        if policy == "flush":
            self.sets = [dict() for _ in range(n_sets)]
        elif n_sets < len(self.sets):
            self.sets = self.sets[:n_sets]
        else:
            mask = n_sets - 1
            self.sets = [
                {line: d for line, d in s.items() if line & mask == i}
                for i, s in enumerate(self.sets)
            ] + [dict() for _ in range(n_sets - len(self.sets))]


class _FixedAddresses:
    """A behaviour that returns the addresses it was given."""

    def __init__(self, loads, stores):
        self.loads, self.stores = loads, stores

    def generate(self, rng, frame_base, region_base, iteration, n_loads,
                 n_stores):
        return list(self.loads), list(self.stores)


#: Few lines, so sets fill, hit their MRU line and evict.
_near = st.lists(
    st.integers(min_value=0, max_value=4095), min_size=0, max_size=12
)
_mru_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["miss", "many", "address"]), _near, _near),
        st.tuples(st.just("touch"), st.integers(0, 4095), st.booleans()),
        st.tuples(st.just("flush")),
        st.tuples(
            st.just("resize"),
            st.sampled_from([4 * KB, 2 * KB, 1 * KB, 512]),
        ),
    ),
    min_size=1,
    max_size=25,
)


class TestMruRecord:
    """Every path that touches a cache — ``access_many``, the runners'
    ``touch`` helper, the address-list path and the L2 side of the miss
    helper — keeps ``Cache._mru`` the last line of its set, and the MRU
    shortcut leaves the sets exactly as pop-and-re-insert LRU would."""

    @given(ops=_mru_ops, policy=st.sampled_from(["selective", "flush"]))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_paths_match_plain_lru(self, ops, policy):
        cache = Cache(
            "c", 4 * KB, 64, 2, sizes=(4 * KB, 2 * KB, 1 * KB, 512),
            resize_policy=policy,
        )
        model = _LruModel(cache)
        miss_lines, wb_lines = [], []
        touch = line_touch(cache, miss_lines, wb_lines)
        as_l2 = l2_miss_path(cache)
        box = [None, None]
        for op in ops:
            kind = op[0]
            if kind == "many":
                cache.access_many(op[1], op[2])
            elif kind == "miss":
                as_l2(op[1], op[2])
            elif kind == "address":
                block = types.SimpleNamespace(
                    gen=_FixedAddresses(op[1], op[2]),
                    n_loads=len(op[1]),
                    n_stores=len(op[2]),
                )
                body = _address_path(
                    [block], random.Random(0), 0, (cache,), (touch,), box
                )
                body(0, 0, 0)
            if kind in ("miss", "many", "address"):
                for addr in op[1]:
                    model.touch(addr, False)
                for addr in op[2]:
                    model.touch(addr, True)
            elif kind == "touch":
                # The runners' access past the MRU check.
                line = op[1] >> cache._line_shift
                missed = line not in cache._sets[line & cache._set_mask]
                assert touch(line & cache._set_mask, line, op[2]) == missed
                model.touch(op[1], op[2])
            elif kind == "flush":
                cache.flush()
                model.flush()
            else:
                cache.resize(op[1])
                model.resize(len(cache._sets), policy)
            assert [list(s.items()) for s in cache._sets] == [
                list(s.items()) for s in model.sets
            ]
            assert_mru_invariant(cache)
