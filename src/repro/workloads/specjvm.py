"""The seven SPECjvm98 stand-in benchmarks (paper §4.3, Table 3).

Each stand-in is a synthetic program whose *structure* is calibrated to the
per-benchmark characteristics the paper publishes:

========= ==================================================================
compress  few, large, streaming hotspots; long stable phases
db        a handful of hot methods with small working sets dominate misses
          (paper §5.2.2 / [25]) — the strongest L1D saver
jack      many small hotspots (Table 4: smallest mean size, most
          invocations); pointer-heavy parsing
javac     heterogeneous hotspots, many transitional phases (Figure 1's
          worst stable coverage), GC activity
jess      rule-engine mix of working-set and chase behaviour
mpegaudio streaming decode loops, long stable phases, high L2 coverage
mtrt      dual-threaded pointer chasing over a shared scene graph
========= ==================================================================

The generators are deterministic in the spec's seed; sizes target the
*scaled* hotspot bands (DESIGN.md §2): mids land in the L1D band, drivers
in the L2 band, leaves below the managed range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.program import DataRegion, Program
from repro.workloads.names import (  # noqa: F401 — re-exported
    BENCHMARK_NAMES,
    SHORT_NAMES,
    SPECJVM_DESCRIPTIONS,
)
from repro.workloads.patterns import (
    MixedBehavior,
    WanderingWindowBehavior,
    PointerChaseBehavior,
    StackBehavior,
    StridedBehavior,
    WorkingSetBehavior,
)
from repro.workloads.templates import (
    MethodSpec,
    TemplateLibrary,
    driver_method,
    jittered_trips,
    leaf_method,
    loop_method,
    phased_driver_method,
)

KB = 1024

#: Working-set tiers, in scaled bytes (multiply by STRUCTURE_SCALE for the
#: paper-scale equivalent).  Each tier sits comfortably (~60 %) inside one
#: cache size, so a candidate configuration either fits it (negligible
#: penalty) or clearly misses — the regime in which a 2 % performance
#: threshold is meaningful despite measurement noise.
WS_A, WS_B, WS_C, WS_D = 600, 1_200, 2_500, 5_000      # L1D: 1/2/4/8 KB
DRV_A, DRV_B, DRV_C, DRV_D = (                          # L2: 16/32/64/128 KB
    10 * KB, 20 * KB, 40 * KB, 80 * KB,
)


@dataclass(frozen=True)
class BenchmarkSpec:
    """All generator knobs for one stand-in benchmark."""

    name: str
    description: str
    seed: int
    threads: int = 1
    # Drivers (L2-band hotspots).
    n_drivers: int = 4
    driver_spans: Tuple[int, ...] = (DRV_B, DRV_C)
    driver_size_range: Tuple[int, int] = (6_000, 20_000)
    mids_per_driver: Tuple[int, int] = (1, 1)
    # Mids (L1D-band hotspots).  ``mid_spans`` is (span, weight) pairs.
    n_mids: int = 10
    mid_spans: Tuple[Tuple[int, float], ...] = (
        (WS_A, 0.55),
        (WS_B, 0.30),
        (WS_C, 0.15),
    )
    mid_size_range: Tuple[int, int] = (700, 4_200)
    #: Weights of memory behaviour kinds for mids: ws / stride / chase.
    mid_kind_weights: Tuple[float, float, float] = (0.65, 0.20, 0.15)
    locality: float = 0.55
    # Leaves (unmanaged tiny hotspots).
    n_leaves: int = 8
    leaf_insns: Tuple[int, int] = (30, 110)
    leaves_per_mid: Tuple[int, int] = (0, 2)
    # Phase script.
    n_segments: int = 12
    burst_range: Tuple[int, int] = (4, 10)
    short_burst_prob: float = 0.15
    # Instruction mix.
    load_frac: float = 0.18
    store_frac: float = 0.07
    trip_jitter: float = 0.10
    # GC service.
    gc: bool = False
    gc_period: int = 400_000

    @property
    def short_name(self) -> str:
        return SHORT_NAMES.get(self.name, self.name)


@dataclass
class BuiltBenchmark:
    """A generated benchmark ready to run."""

    spec: BenchmarkSpec
    program: Program
    thread_entries: Tuple[str, ...]
    library: TemplateLibrary = field(default_factory=TemplateLibrary)

    @property
    def name(self) -> str:
        return self.spec.name


# ---------------------------------------------------------------------------
# Tuned per-benchmark specs
# ---------------------------------------------------------------------------

_SPECS: Dict[str, BenchmarkSpec] = {
    "compress": BenchmarkSpec(
        name="compress",
        description=SPECJVM_DESCRIPTIONS["compress"],
        seed=101,
        n_drivers=3,
        driver_spans=(DRV_A, DRV_B),
        driver_size_range=(7_000, 18_000),
        n_mids=7,
        mid_spans=((WS_B, 0.50), (WS_C, 0.40), (WS_D, 0.10)),
        mid_kind_weights=(0.25, 0.65, 0.10),
        locality=0.50,
        n_leaves=6,
        n_segments=8,
        burst_range=(10, 22),
        short_burst_prob=0.08,
        load_frac=0.16,
    ),
    "db": BenchmarkSpec(
        name="db",
        description=SPECJVM_DESCRIPTIONS["db"],
        seed=102,
        n_drivers=3,
        driver_spans=(DRV_A, DRV_A, DRV_B),
        driver_size_range=(6_000, 16_000),
        n_mids=8,
        mid_spans=((WS_A, 0.70), (WS_B, 0.20), (WS_C, 0.10)),
        mid_kind_weights=(0.85, 0.05, 0.10),
        locality=0.75,
        n_leaves=7,
        n_segments=10,
        burst_range=(8, 18),
        short_burst_prob=0.08,
        load_frac=0.22,
        store_frac=0.06,
    ),
    "jack": BenchmarkSpec(
        name="jack",
        description=SPECJVM_DESCRIPTIONS["jack"],
        seed=103,
        n_drivers=4,
        driver_spans=(DRV_B, DRV_C),
        driver_size_range=(5_500, 12_000),
        n_mids=16,
        mids_per_driver=(1, 2),
        mid_spans=((WS_A, 0.50), (WS_B, 0.30), (WS_C, 0.20)),
        mid_size_range=(550, 2_200),
        mid_kind_weights=(0.50, 0.20, 0.30),
        locality=0.55,
        n_leaves=14,
        n_segments=12,
        burst_range=(5, 12),
        short_burst_prob=0.18,
    ),
    "javac": BenchmarkSpec(
        name="javac",
        description=SPECJVM_DESCRIPTIONS["javac"],
        seed=104,
        n_drivers=6,
        driver_spans=(DRV_B, DRV_C, DRV_C),
        driver_size_range=(6_000, 16_000),
        n_mids=14,
        mids_per_driver=(1, 2),
        mid_spans=((WS_A, 0.25), (WS_B, 0.35), (WS_C, 0.25), (WS_D, 0.15)),
        mid_kind_weights=(0.60, 0.15, 0.25),
        locality=0.50,
        n_leaves=10,
        n_segments=16,
        burst_range=(2, 7),
        short_burst_prob=0.35,
        gc=True,
        gc_period=400_000,
    ),
    "jess": BenchmarkSpec(
        name="jess",
        description=SPECJVM_DESCRIPTIONS["jess"],
        seed=105,
        n_drivers=5,
        driver_spans=(DRV_A, DRV_C),
        driver_size_range=(6_000, 18_000),
        n_mids=12,
        mid_spans=((WS_A, 0.45), (WS_B, 0.35), (WS_C, 0.20)),
        mid_kind_weights=(0.65, 0.15, 0.20),
        n_leaves=9,
        n_segments=12,
        burst_range=(4, 11),
        short_burst_prob=0.20,
    ),
    "mpegaudio": BenchmarkSpec(
        name="mpegaudio",
        description=SPECJVM_DESCRIPTIONS["mpegaudio"],
        seed=106,
        n_drivers=4,
        driver_spans=(DRV_A, DRV_B),
        driver_size_range=(7_000, 20_000),
        n_mids=9,
        mid_spans=((WS_B, 0.60), (WS_C, 0.30), (WS_D, 0.10)),
        mid_kind_weights=(0.30, 0.60, 0.10),
        locality=0.50,
        n_leaves=7,
        n_segments=9,
        burst_range=(9, 20),
        short_burst_prob=0.05,
        load_frac=0.14,
        store_frac=0.05,
    ),
    "mtrt": BenchmarkSpec(
        name="mtrt",
        description=SPECJVM_DESCRIPTIONS["mtrt"],
        seed=107,
        threads=2,
        n_drivers=4,
        driver_spans=(DRV_B, DRV_C),
        driver_size_range=(6_000, 16_000),
        n_mids=10,
        mid_spans=((WS_A, 0.25), (WS_B, 0.45), (WS_C, 0.20), (WS_D, 0.10)),
        mid_kind_weights=(0.35, 0.15, 0.50),
        locality=0.50,
        n_leaves=8,
        n_segments=10,
        burst_range=(5, 12),
        short_burst_prob=0.15,
    ),
}


def benchmark_spec(name: str) -> BenchmarkSpec:
    """The tuned spec of one stand-in (KeyError with guidance otherwise)."""
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(_SPECS)}"
        ) from None


def benchmark_names() -> Tuple[str, ...]:
    """All stand-in benchmark names, sorted (the full-suite iteration
    order used by sweeps, the equivalence grid, and the bench tool)."""
    return tuple(sorted(_SPECS))


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def _weighted_choice(rng: random.Random, pairs: Sequence[Tuple[object, float]]):
    total = sum(w for _, w in pairs)
    x = rng.random() * total
    for value, weight in pairs:
        x -= weight
        if x <= 0:
            return value
    return pairs[-1][0]


class _Allocator:
    """Hands out non-overlapping data regions, 64 KB-aligned."""

    def __init__(self, base: int = 0x1000_0000):
        self._cursor = base

    def region(self, span: int) -> DataRegion:
        base = self._cursor
        self._cursor += (span + 0xFFFF) & ~0xFFFF
        return DataRegion(base, span)


def _mid_memory(kind: str, span: int, locality: float):
    if kind == "ws":
        return WorkingSetBehavior(span, locality=locality)
    if kind == "stride":
        return StridedBehavior(span, stride=64)
    if kind == "chase":
        return PointerChaseBehavior(span)
    raise ValueError(f"unknown memory kind {kind!r}")


def build_benchmark(
    spec_or_name: Union[str, BenchmarkSpec],
    seed_override: Optional[int] = None,
    size_scale: float = 1.0,
) -> BuiltBenchmark:
    """Generate one stand-in benchmark program.

    ``size_scale`` multiplies the hotspot size targets (mid/driver
    dynamic sizes and the GC period).  It exists for scale-validity
    studies: when the machine's interval scale is changed from the
    calibrated 1/100, the workload's hotspot sizes must track the shifted
    CU bands (paper §3.2.1 ties hotspot sizes to reconfiguration
    intervals, so the two scale together by construction).
    """
    spec = (
        benchmark_spec(spec_or_name)
        if isinstance(spec_or_name, str)
        else spec_or_name
    )
    if size_scale <= 0:
        raise ValueError(f"size_scale must be positive: {size_scale}")
    if size_scale != 1.0:
        from dataclasses import replace as _replace

        def scaled(pair):
            return (
                max(2, int(pair[0] * size_scale)),
                max(4, int(pair[1] * size_scale)),
            )

        spec = _replace(
            spec,
            mid_size_range=scaled(spec.mid_size_range),
            driver_size_range=scaled(spec.driver_size_range),
            gc_period=max(1, int(spec.gc_period * size_scale)),
        )
    rng = random.Random(
        spec.seed if seed_override is None else seed_override
    )
    lib = TemplateLibrary()
    alloc = _Allocator()

    # -- leaves ---------------------------------------------------------
    leaf_names: List[str] = []
    leaf_sizes: Dict[str, int] = {}
    for i in range(spec.n_leaves):
        name = f"leaf{i}"
        insns = rng.randint(*spec.leaf_insns)
        loads = max(1, round(insns * spec.load_frac * 0.6))
        stores = max(0, round(insns * spec.store_frac * 0.6))
        method = leaf_method(
            name, insns, memory=StackBehavior(span=192),
            loads=loads, stores=stores,
        )
        lib.add(method, MethodSpec(name, "leaf", target_size=insns))
        leaf_names.append(name)
        leaf_sizes[name] = insns

    # -- mids (L1D-band hotspots) -----------------------------------------
    kind_pairs = list(
        zip(("ws", "stride", "chase"), spec.mid_kind_weights)
    )
    mid_names: List[str] = []
    mid_sizes: Dict[str, int] = {}
    for j in range(spec.n_mids):
        name = f"mid{j}"
        span = _weighted_choice(rng, list(spec.mid_spans))
        kind = _weighted_choice(rng, kind_pairs)
        body = rng.randint(28, 56)
        loads = max(1, round(body * spec.load_frac))
        stores = max(1, round(body * spec.store_frac))
        n_callees = rng.randint(*spec.leaves_per_mid)
        callees = rng.sample(leaf_names, k=min(n_callees, len(leaf_names)))
        per_iter = body + sum(leaf_sizes[c] for c in callees) + 4
        entry_insns = rng.randint(4, 10)
        target = rng.randint(*spec.mid_size_range)
        trips_mean = max(2, round((target - entry_insns) / per_iter))
        method = loop_method(
            name,
            trips=jittered_trips(trips_mean, spec.trip_jitter),
            body_insns=body,
            loads=loads,
            stores=stores,
            memory=_mid_memory(kind, span, spec.locality),
            callees=callees,
            entry_insns=entry_insns,
            region=alloc.region(span),
            attributes={"kind": kind, "tier": "mid"},
        )
        actual = entry_insns + trips_mean * per_iter
        lib.add(
            method,
            MethodSpec(
                name, "mid", target_size=actual,
                trips_mean=trips_mean, span=span, callees=tuple(callees),
            ),
        )
        mid_names.append(name)
        mid_sizes[name] = actual

    # -- drivers (L2-band hotspots) -------------------------------------------
    # Mids are dealt to drivers round-robin from a shuffled rotation so
    # every generated mid is actually reachable (and can become a hotspot).
    rotation = list(mid_names)
    rng.shuffle(rotation)
    rotation_ptr = 0
    driver_names: List[str] = []
    for d in range(spec.n_drivers):
        name = f"driver{d}"
        span = rng.choice(spec.driver_spans)
        body = rng.randint(30, 60)
        loads = max(2, round(body * spec.load_frac))
        stores = max(1, round(body * spec.store_frac))
        k = min(rng.randint(*spec.mids_per_driver), len(rotation))
        driver_mids = [
            rotation[(rotation_ptr + i) % len(rotation)] for i in range(k)
        ]
        rotation_ptr += k
        # One mid runs per iteration; size the loop on the average mid.
        avg_mid = sum(mid_sizes[m] for m in driver_mids) / len(driver_mids)
        per_iter = body + avg_mid + 8
        target = rng.randint(*spec.driver_size_range)
        trips_mean = max(4, round(target / per_iter))
        # Driver-tier code is loop control over large data.  Its memory is
        # built so the L1D configuration the nested mids choose is
        # automatically right for the enclosing driver (the nesting
        # assumption of CU decoupling, §3.2.1), while the driver's span
        # still expresses a graded L2 appetite:
        #   * frame locals (hit everywhere);
        #   * a wrap-around stream over a window that exceeds every L1D
        #     size but fits every L2 size — 0 % L1D hits at *any* L1D
        #     setting, 100 % L2 hits at any L2 setting: pure constant cost;
        #   * sparse uniform traffic over the full span — this is what an
        #     under-sized L2 degrades, proportionally to the shortfall.
        # The streaming component walks sequentially through a region far
        # larger than the biggest L2, so its misses are compulsory at
        # *every* L1D and L2 setting — pure input streaming, the dominant
        # memory behaviour of s100 runs whose data dwarfs a 1 MB L2.  It
        # costs baseline and adaptive configurations identically.
        stream_region = 4 * 128 * KB
        # The L2-appetite component is the wandering window: resident on
        # the scale of one phase (so an adequate L2 earns its keep) but
        # drifted on by the next recurrence (so not even the maximum L2
        # retains it — the baseline cold-misses at phase boundaries too).
        region_span = span * 6
        # Layout within the driver's region: [window backing | stream].
        driver_memory = MixedBehavior(
            [
                (StackBehavior(span=256), 0.35),
                (
                    StridedBehavior(
                        stream_region, stride=32, offset=region_span
                    ),
                    0.40,
                ),
                (
                    WanderingWindowBehavior(
                        span, region_span, drift=max(64, span // 100)
                    ),
                    0.25,
                ),
            ]
        )
        method = driver_method(
            name,
            trips=jittered_trips(trips_mean, spec.trip_jitter),
            body_insns=body,
            loads=loads,
            stores=stores,
            memory=driver_memory,
            mids=driver_mids,
            alternation_period=rng.randint(30, 60),
            entry_insns=rng.randint(6, 12),
            region=alloc.region(region_span + stream_region),
            attributes={"tier": "driver"},
        )
        actual = int(trips_mean * per_iter)
        lib.add(
            method,
            MethodSpec(
                name, "driver", target_size=actual,
                trips_mean=trips_mean, span=span,
                callees=tuple(driver_mids),
            ),
        )
        driver_names.append(name)

    # -- GC service -------------------------------------------------------------
    methods = list(lib.methods)
    if spec.gc:
        gc_span = 64 * KB
        gc = loop_method(
            "gc_sweep",
            trips=60,
            body_insns=40,
            loads=4,
            stores=5,
            memory=StridedBehavior(gc_span, stride=512),
            entry_insns=8,
            region=alloc.region(gc_span),
            attributes={"tier": "gc"},
        )
        lib.add(gc, MethodSpec("gc_sweep", "gc", span=gc_span))
        methods.append(gc)

    # -- phase scripts / entry methods --------------------------------------------
    def make_script() -> List[Tuple[str, int]]:
        script = []
        for _ in range(spec.n_segments):
            driver = rng.choice(driver_names)
            if rng.random() < spec.short_burst_prob:
                repeat = rng.randint(1, 2)
            else:
                repeat = rng.randint(*spec.burst_range)
            script.append((driver, repeat))
        return script

    entries: List[str] = []
    if spec.threads == 1:
        main = phased_driver_method("main", make_script())
        lib.add(main, MethodSpec("main", "main"))
        methods.append(main)
        entries.append("main")
    else:
        for t in range(spec.threads):
            name = f"worker{t}"
            worker = phased_driver_method(name, make_script())
            lib.add(worker, MethodSpec(name, "main"))
            methods.append(worker)
            entries.append(name)

    program = Program(methods, entries[0]).validated()
    return BuiltBenchmark(
        spec=spec,
        program=program,
        thread_entries=tuple(entries),
        library=lib,
    )


def build_suite(
    names: Optional[Sequence[str]] = None,
) -> List[BuiltBenchmark]:
    """Generate all (or the named subset of) stand-in benchmarks."""
    return [build_benchmark(n) for n in (names or BENCHMARK_NAMES)]
