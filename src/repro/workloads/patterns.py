"""Memory-access behaviour generators.

Each behaviour implements :class:`repro.isa.program.MemoryBehavior` and
produces the data addresses one block execution touches.  The behaviours are
the knob that determines how a method responds to cache downsizing:

* :class:`StackBehavior` — frame-local accesses; hits in any L1D size.
* :class:`StridedBehavior` — streaming walk; miss rate set by
  ``stride / line_size`` and nearly independent of cache size (compress,
  mpegaudio inner loops).
* :class:`WorkingSetBehavior` — uniform reuse inside a span; hits as long as
  the span fits the cache, so the span *is* the method's cache appetite
  (db's handful of hot methods, javac's symbol tables).
* :class:`PointerChaseBehavior` — like a working set but flagged as
  dependence-serialised, which the timing model charges extra latency for
  (mtrt's scene-graph traversal).
* :class:`MixedBehavior` — weighted combination.

All behaviours are deterministic functions of the activation RNG, the frame
base, the method's region base, and the per-block iteration counter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.isa.program import MemoryBehavior

#: Alignment applied to generated addresses (word accesses).
WORD = 4


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _u4(span: int) -> Tuple[int, int]:
    """Parameters of the ``randrange(0, span, WORD)`` draw.

    Returns ``(n, k)`` such that the draw equals ``WORD * r`` where ``r``
    is produced by CPython's ``_randbelow`` rejection loop: ``r =
    getrandbits(k)`` redrawn while ``r >= n``.  The ``compile_fast``
    generators below inline that loop, so they consume *exactly* the same
    underlying ``getrandbits`` sequence as the readable ``generate``
    paths — the property the kernel-equivalence harness depends on.  (The
    rejection loop has been CPython's ``Random._randbelow`` for every
    supported version; the differential tests would catch a change.)
    """
    n = (span + WORD - 1) // WORD
    return n, n.bit_length()


class StackBehavior(MemoryBehavior):
    """Accesses within the activation's stack frame.

    ``span`` bytes starting at the frame base are touched with uniform
    reuse; frames are small (default 256 B), so these accesses hit in every
    L1D configuration — they model locals/spills.
    """

    uses_iteration = False

    def __init__(self, span: int = 256):
        _require_positive("span", span)
        self.span = span

    @classmethod
    def from_kwargs(cls, span: int = 256) -> "StackBehavior":
        return cls(span=int(span))

    def generate(self, rng, frame_base, region_base, iteration, n_loads, n_stores):
        span = self.span
        randrange = rng.randrange
        loads = [
            frame_base + randrange(0, span, WORD) for _ in range(n_loads)
        ]
        stores = [
            frame_base + randrange(0, span, WORD) for _ in range(n_stores)
        ]
        return loads, stores

    def compile_fast(self, n_loads: int, n_stores: int):
        n, k = _u4(self.span)
        load_iter = range(n_loads)
        store_iter = range(n_stores)

        def fast(rng, frame_base, region_base, iteration):
            getrandbits = rng.getrandbits
            loads: List[int] = []
            append = loads.append
            for _ in load_iter:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(frame_base + r * WORD)
            stores: List[int] = []
            append = stores.append
            for _ in store_iter:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(frame_base + r * WORD)
            return loads, stores

        return fast

    def footprint(self) -> Optional[int]:
        return self.span

    def __repr__(self) -> str:
        return f"StackBehavior(span={self.span})"


class StridedBehavior(MemoryBehavior):
    """Streaming walk through ``span`` bytes at a fixed stride.

    The walk position advances with the block's iteration counter and wraps
    at the span, so long loops sweep the span repeatedly.  With
    ``stride >= line_size`` every access is a (compulsory/capacity) miss
    regardless of cache size; with small strides the pattern is spatially
    local.  ``offset`` displaces the walk inside the method's region.
    """

    def __init__(self, span: int, stride: int = WORD, offset: int = 0):
        _require_positive("span", span)
        _require_positive("stride", stride)
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.span = span
        self.stride = stride
        self.offset = offset

    @classmethod
    def from_kwargs(
        cls, span: int, stride: int = WORD, offset: int = 0
    ) -> "StridedBehavior":
        return cls(span=int(span), stride=int(stride), offset=int(offset))

    def generate(self, rng, frame_base, region_base, iteration, n_loads, n_stores):
        base = region_base + self.offset
        span = self.span
        stride = self.stride
        refs = n_loads + n_stores
        start = iteration * refs * stride
        addrs = [
            base + ((start + i * stride) % span) for i in range(refs)
        ]
        return addrs[:n_loads], addrs[n_loads:]

    def compile_fast(self, n_loads: int, n_stores: int):
        span = self.span
        stride = self.stride
        offset = self.offset
        refs = n_loads + n_stores
        load_iter = range(n_loads)
        store_iter = range(n_loads, refs)

        def fast(rng, frame_base, region_base, iteration):
            base = region_base + offset
            start = iteration * refs * stride
            loads = [
                base + ((start + i * stride) % span) for i in load_iter
            ]
            stores = [
                base + ((start + i * stride) % span) for i in store_iter
            ]
            return loads, stores

        return fast

    def footprint(self) -> Optional[int]:
        return self.span

    def __repr__(self) -> str:
        return (
            f"StridedBehavior(span={self.span}, stride={self.stride}, "
            f"offset={self.offset})"
        )


class WorkingSetBehavior(MemoryBehavior):
    """Uniform random reuse inside a span of the method's region.

    ``locality`` fraction of references go to a hot eighth of the span
    (temporal locality); the remainder spread over the whole span.  The span
    determines which cache sizes the method is happy with.
    """

    uses_iteration = False

    def __init__(self, span: int, locality: float = 0.5, offset: int = 0):
        _require_positive("span", span)
        if not 0.0 <= locality <= 1.0:
            raise ValueError(f"locality must be in [0, 1], got {locality}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.span = span
        self.locality = locality
        self.offset = offset
        self._hot_span = max(WORD, span // 8)

    @classmethod
    def from_kwargs(
        cls, span: int, locality: float = 0.5, offset: int = 0
    ) -> "WorkingSetBehavior":
        return cls(span=int(span), locality=float(locality), offset=int(offset))

    def _addresses(self, rng, base: int, count: int) -> List[int]:
        span = self.span
        hot = self._hot_span
        locality = self.locality
        random = rng.random
        randrange = rng.randrange
        out = []
        for _ in range(count):
            if random() < locality:
                out.append(base + randrange(0, hot, WORD))
            else:
                out.append(base + randrange(0, span, WORD))
        return out

    def generate(self, rng, frame_base, region_base, iteration, n_loads, n_stores):
        base = region_base + self.offset
        return (
            self._addresses(rng, base, n_loads),
            self._addresses(rng, base, n_stores),
        )

    def compile_fast(self, n_loads: int, n_stores: int):
        locality = self.locality
        offset = self.offset
        n_hot, k_hot = _u4(self._hot_span)
        n_span, k_span = _u4(self.span)
        load_iter = range(n_loads)
        store_iter = range(n_stores)

        def fast(rng, frame_base, region_base, iteration):
            base = region_base + offset
            random = rng.random
            getrandbits = rng.getrandbits
            loads: List[int] = []
            append = loads.append
            for _ in load_iter:
                if random() < locality:
                    r = getrandbits(k_hot)
                    while r >= n_hot:
                        r = getrandbits(k_hot)
                else:
                    r = getrandbits(k_span)
                    while r >= n_span:
                        r = getrandbits(k_span)
                append(base + r * WORD)
            stores: List[int] = []
            append = stores.append
            for _ in store_iter:
                if random() < locality:
                    r = getrandbits(k_hot)
                    while r >= n_hot:
                        r = getrandbits(k_hot)
                else:
                    r = getrandbits(k_span)
                    while r >= n_span:
                        r = getrandbits(k_span)
                append(base + r * WORD)
            return loads, stores

        return fast

    def footprint(self) -> Optional[int]:
        return self.span

    def __repr__(self) -> str:
        return (
            f"WorkingSetBehavior(span={self.span}, locality={self.locality}, "
            f"offset={self.offset})"
        )


class WanderingWindowBehavior(MemoryBehavior):
    """Uniform references inside a window that drifts through a larger
    backing region.

    The *window* size is the behaviour's live working set (what a cache
    must hold); the *region* is the total data touched over time.  Because
    the window moves, no cache retains the data indefinitely — the
    behaviour of a workload whose input is much larger than any cache
    (SPECjvm98's s100 heaps vastly exceed 1 MB), which is what keeps a
    statically-maximal cache from being an unrealistically perfect
    baseline.
    """

    def __init__(self, window: int, region_span: int, drift: int = 128):
        _require_positive("window", window)
        _require_positive("region_span", region_span)
        _require_positive("drift", drift)
        if region_span < window:
            raise ValueError(
                f"region_span ({region_span}) must be >= window ({window})"
            )
        self.window = window
        self.region_span = region_span
        self.drift = drift

    @classmethod
    def from_kwargs(
        cls, window: int, region_span: int, drift: int = 128
    ) -> "WanderingWindowBehavior":
        return cls(
            window=int(window),
            region_span=int(region_span),
            drift=int(drift),
        )

    def generate(self, rng, frame_base, region_base, iteration, n_loads, n_stores):
        position = (iteration * self.drift) % self.region_span
        window = self.window
        span = self.region_span
        randrange = rng.randrange
        base = region_base

        def address() -> int:
            offset = position + randrange(0, window, WORD)
            return base + offset % span

        loads = [address() for _ in range(n_loads)]
        stores = [address() for _ in range(n_stores)]
        return loads, stores

    def compile_fast(self, n_loads: int, n_stores: int):
        drift = self.drift
        span = self.region_span
        n, k = _u4(self.window)
        load_iter = range(n_loads)
        store_iter = range(n_stores)

        def fast(rng, frame_base, region_base, iteration):
            position = (iteration * drift) % span
            getrandbits = rng.getrandbits
            loads: List[int] = []
            append = loads.append
            for _ in load_iter:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(region_base + (position + r * WORD) % span)
            stores: List[int] = []
            append = stores.append
            for _ in store_iter:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(region_base + (position + r * WORD) % span)
            return loads, stores

        return fast

    def footprint(self) -> Optional[int]:
        return self.window

    def __repr__(self) -> str:
        return (
            f"WanderingWindowBehavior(window={self.window}, "
            f"region={self.region_span}, drift={self.drift})"
        )


class PointerChaseBehavior(MemoryBehavior):
    """Dependence-serialised random traversal of a span.

    Address-wise identical to a working set with no hot subset, but marked
    ``serialized`` so the timing model cannot overlap its misses (models
    linked-structure walks: mtrt's scene graph, jack's parse trees).
    """

    serialized = True
    uses_iteration = False

    def __init__(self, span: int, offset: int = 0):
        _require_positive("span", span)
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.span = span
        self.offset = offset

    @classmethod
    def from_kwargs(cls, span: int, offset: int = 0) -> "PointerChaseBehavior":
        return cls(span=int(span), offset=int(offset))

    def generate(self, rng, frame_base, region_base, iteration, n_loads, n_stores):
        base = region_base + self.offset
        span = self.span
        randrange = rng.randrange
        loads = [base + randrange(0, span, WORD) for _ in range(n_loads)]
        stores = [base + randrange(0, span, WORD) for _ in range(n_stores)]
        return loads, stores

    def compile_fast(self, n_loads: int, n_stores: int):
        offset = self.offset
        n, k = _u4(self.span)
        load_iter = range(n_loads)
        store_iter = range(n_stores)

        def fast(rng, frame_base, region_base, iteration):
            base = region_base + offset
            getrandbits = rng.getrandbits
            loads: List[int] = []
            append = loads.append
            for _ in load_iter:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(base + r * WORD)
            stores: List[int] = []
            append = stores.append
            for _ in store_iter:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(base + r * WORD)
            return loads, stores

        return fast

    def footprint(self) -> Optional[int]:
        return self.span

    def __repr__(self) -> str:
        return f"PointerChaseBehavior(span={self.span}, offset={self.offset})"


class MixedBehavior(MemoryBehavior):
    """Weighted combination of component behaviours.

    References are apportioned to components by weight (largest remainder,
    so counts always add up); each component generates its share.
    """

    def __init__(
        self,
        components: Sequence[Tuple[MemoryBehavior, float]],
    ):
        if not components:
            raise ValueError("MixedBehavior needs at least one component")
        total = sum(w for _, w in components)
        if total <= 0:
            raise ValueError("component weights must sum to a positive value")
        self.components = [(b, w / total) for b, w in components]
        self.uses_iteration = any(
            b.uses_iteration for b, _ in self.components
        )

    @classmethod
    def from_kwargs(
        cls,
        stack: float = 0.0,
        ws_span: int = 0,
        ws_weight: float = 0.0,
        stride_span: int = 0,
        stride_weight: float = 0.0,
        stride: int = 64,
        locality: float = 0.5,
    ) -> "MixedBehavior":
        """Assembler-friendly constructor from flat keyword arguments."""
        parts: List[Tuple[MemoryBehavior, float]] = []
        if stack > 0:
            parts.append((StackBehavior(), float(stack)))
        if ws_weight > 0:
            parts.append(
                (
                    WorkingSetBehavior(int(ws_span), locality=float(locality)),
                    float(ws_weight),
                )
            )
        if stride_weight > 0:
            parts.append(
                (
                    StridedBehavior(int(stride_span), stride=int(stride)),
                    float(stride_weight),
                )
            )
        return cls(parts)

    @staticmethod
    def _apportion(count: int, weights: List[float]) -> List[int]:
        raw = [w * count for w in weights]
        floors = [int(x) for x in raw]
        remainder = count - sum(floors)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - floors[i], reverse=True
        )
        for i in order[:remainder]:
            floors[i] += 1
        return floors

    def generate(self, rng, frame_base, region_base, iteration, n_loads, n_stores):
        weights = [w for _, w in self.components]
        load_shares = self._apportion(n_loads, weights)
        store_shares = self._apportion(n_stores, weights)
        loads: List[int] = []
        stores: List[int] = []
        for (behavior, _), nl, ns in zip(
            self.components, load_shares, store_shares
        ):
            sub_loads, sub_stores = behavior.generate(
                rng, frame_base, region_base, iteration, nl, ns
            )
            loads.extend(sub_loads)
            stores.extend(sub_stores)
        return loads, stores

    def compile_fast(self, n_loads: int, n_stores: int):
        weights = [w for _, w in self.components]
        load_shares = self._apportion(n_loads, weights)
        store_shares = self._apportion(n_stores, weights)
        subs = []
        for (behavior, _), nl, ns in zip(
            self.components, load_shares, store_shares
        ):
            sub = behavior.compile_fast(nl, ns)
            if sub is None:
                def sub(rng, fb, rb, it, _b=behavior, _nl=nl, _ns=ns):
                    return _b.generate(rng, fb, rb, it, _nl, _ns)
            subs.append(sub)

        def fast(rng, frame_base, region_base, iteration):
            loads: List[int] = []
            stores: List[int] = []
            for sub in subs:
                sub_loads, sub_stores = sub(
                    rng, frame_base, region_base, iteration
                )
                loads.extend(sub_loads)
                stores.extend(sub_stores)
            return loads, stores

        return fast

    def footprint(self) -> Optional[int]:
        spans = [b.footprint() for b, _ in self.components]
        known = [s for s in spans if s is not None]
        return max(known) if known else None

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({behavior!r}, {weight:.3f})"
            for behavior, weight in self.components
        )
        return f"MixedBehavior([{inner}])"
