"""Outside-in per-layer tracing for the benchmark's traced repetition.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public functions each layer exposes, at the binding the caller
actually looks up (``driver.build_benchmark`` as well as
``specjvm.build_benchmark``, the ``cli.SUITE_EXHIBITS`` entries, the
policy classes' hook methods), so the traced process runs the same
program with timers at the layer boundaries.

Run as a program it executes one workload program under the wrappers::

    python perf/tracing.py TRACE_DIR repro all --jobs 2 --seed 12345 ...
    python perf/tracing.py TRACE_DIR grid --seed 12345 --store-dir ...

Spans stay in memory.  The main process writes its records to
``TRACE_DIR/spans-<pid>.jsonl`` at exit, once the pool has shut down;
pool workers inherit the wrappers through ``fork`` and append one
record per cell (and one per warm-up and per chunk) to their own file.
:func:`layer_metrics` folds the records of all processes into the
per-layer table.

Two kinds of wrapper exist.  A *span* records name, start, end, parent
span and cell, in wall and CPU time.  A *hot* wrapper, for calls made
up to millions of times per run (policy hooks, fingerprints), only adds
to its name's call count and self time.  A layer's self time is its
wrappers' time minus the time of the wrapped calls nested inside them.
"""

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import atexit  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

#: Names whose self time is summed into each reported ``*_s`` layer
#: metric.  Every wrapper name belongs to exactly one entry, so the
#: entries partition the attributed time.
LAYER_TIMES = {
    "startup.interp_s": ("startup.interp",),
    "startup.import_s": ("startup.import",),
    "startup.exit_s": ("startup.exit",),
    "program.self_s": ("program",),
    "workloads.build_s": ("workloads.build",),
    "vm.decode_s": ("vm.decode",),
    "vm.kernel_self_s": ("vm.kernel",),
    "core.hook_s": ("core.hook",),
    "phases.hook_s": ("phases.hook",),
    "uarch.build_machine_s": ("uarch.build_machine",),
    "sim.driver.self_s": ("sim.driver",),
    "sim.engine.self_s": ("sim.engine",),
    "sim.engine.fingerprint_s": ("sim.engine.fingerprint",),
    "sim.store.put_s": ("sim.store.put",),
    "sim.store.get_s": ("sim.store.get",),
    "sim.pools.self_s": (
        "sim.pools.start",
        "sim.pools.submit",
        "sim.pools.warmup",
        "sim.pools.chunk",
    ),
    "sim.schedule.plan_s": ("sim.schedule.plan",),
    "report.render_s": ("report.render",),
    "trace.bookkeeping_s": ("trace.bookkeeping",),
}

#: The tracer of this process, reachable from every wrapper; pool
#: workers inherit it through ``fork`` and reset it in the child.
TRACER = None


class Tracer:
    """Span stack, per-name totals and span records of one process."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        #: Open frames: ``[child_wall, child_cpu, span_id]``.
        self.stack = []
        #: Name -> ``[calls, self_wall, self_cpu]``, mutated in place
        #: (wrappers hold references to these lists).
        self.totals = {}
        self.spans = []
        self.counters = {}
        #: Parent-side pool chunk records (submit/done/service/bytes).
        self.chunks = []
        self.cell = None
        self.role = "main"
        self.pid = os.getpid()
        self.spawn_pending = False
        self.program_end = None
        self._next_id = 0
        self._fuse_base = {}

    def total(self, name):
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def record(self, name, wall, cpu):
        """Account a measured interval that no wrapper observed."""
        total = self.total(name)
        total[0] += 1
        total[1] += wall
        total[2] += cpu

    def after_fork(self):
        """Start a pool worker with an empty record of its own."""
        self.stack.clear()
        self.spans.clear()
        self.chunks.clear()
        self.counters.clear()
        for total in self.totals.values():
            total[0], total[1], total[2] = 0, 0.0, 0.0
        self.cell = None
        self.role = "worker"
        self.pid = os.getpid()
        self.spawn_pending = False
        self._fuse_base = _fuse_counters()

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None, label_of=None, cell_of=None):
        """Wrap ``fn`` in a recorded span.

        ``after(args, result, start, end)`` runs once the span closed,
        timed as tracer bookkeeping; ``label_of(args)`` tags the span;
        ``cell_of(args)`` names the cell every nested span belongs to.
        """
        tracer = self
        stack = self.stack
        total = self.total(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][2] if stack else None
            outer_cell = tracer.cell
            if cell_of is not None:
                tracer.cell = cell_of(args)
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            cpu_start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                cpu = process_time() - cpu_start
                stack.pop()
                wall = end - start
                total[0] += 1
                total[1] += wall - frame[0]
                total[2] += cpu - frame[1]
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                tracer.spans.append(
                    (
                        name,
                        span_id,
                        parent,
                        tracer.cell,
                        None if label_of is None else label_of(args),
                        start,
                        end,
                        wall - frame[0],
                    )
                )
            if after is not None:
                tracer.bookkeeping(after, args, result, start, end)
            tracer.cell = outer_cell
            return result

        return wrapper

    def hot(self, name, fn):
        """Wrap ``fn`` for call count and self time only (no record).

        Timed with the wall clock alone, which in CPU accounting counts
        as CPU time: exact while the process is not descheduled.  The
        callers pass positional arguments only.
        """
        stack = self.stack
        total = self.total(name)

        @functools.wraps(fn)
        def wrapper(*args):
            frame = [0.0, 0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                wall = perf_counter() - start
                stack.pop()
                total[0] += 1
                total[1] += wall - frame[0]
                total[2] += wall - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += wall
                    parent[1] += wall

        return wrapper

    def bookkeeping(self, fn, *args):
        """Run tracer work so that no layer is charged for it."""
        start = perf_counter()
        fn(*args)
        wall = perf_counter() - start
        self.record("trace.bookkeeping", wall, wall)
        if self.stack:
            self.stack[-1][0] += wall
            self.stack[-1][1] += wall

    # -- output ------------------------------------------------------------

    def flush(self, **extra):
        """Append this process's new spans, then its running totals.

        The span write is timed as bookkeeping before the totals are
        written, so the totals record includes it.
        """
        start = perf_counter()
        spans = [
            {
                "name": name,
                "id": f"{self.pid}:{span_id}",
                "parent": None if parent is None else f"{self.pid}:{parent}",
                "cell": cell,
                "label": label,
                "start": t0,
                "end": t1,
                "self_s": self_s,
            }
            for name, span_id, parent, cell, label, t0, t1, self_s in self.spans
        ]
        self.spans.clear()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": self.pid, "spans": spans}) + "\n")
            wall = perf_counter() - start
            self.record("trace.bookkeeping", wall, wall)
            fuse = _fuse_counters()
            counters = dict(self.counters)
            for key, value in fuse.items():
                counters[f"vm.fuse_{key}"] = value - self._fuse_base.get(key, 0)
            record = {
                "pid": self.pid,
                "role": self.role,
                "totals": self.totals,
                "counters": counters,
                "chunks": self.chunks,
                "flush_s": wall,
            }
            record.update(extra)
            handle.write(json.dumps(record) + "\n")

    def finish(self):
        """Last flush of the main process, run by ``atexit`` once the
        interpreter has joined its threads (the pool's included)."""
        self.flush(program_end=self.program_end, atexit=_clocks())


def _clocks():
    return [perf_counter(), process_time()]


def _fuse_counters():
    module = sys.modules.get("repro.vm.blockjit")
    if module is None:
        return {"compiles": 0, "hits": 0}
    info = module.cache_info()
    return {"compiles": info["compiles"], "hits": info["hits"]}


# -- installation ----------------------------------------------------------


def policy_hooks(cls, base):
    """The hook methods ``cls`` itself defines: overrides of ``base``'s
    interface, the entry/exit stubs it installs through ``vm.jit``, and
    ``finalize``.  Inherited hooks stay untouched, because the fast
    kernel picks its path by comparing them with ``base``'s."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value)
        and not name.startswith("__")
        and (
            hasattr(base, name)
            or name.endswith(("_entry", "_exit"))
            or name == "finalize"
        )
    )


def install(tracer):
    """Install every layer wrapper; returns ``[(owner, key, original)]``.

    ``owner`` is a module, class or dict and ``key`` the attribute or
    item replaced, so a caller (the self-test) can check each binding.
    """
    global TRACER
    from repro import cli
    from repro.core.policy import HotspotACEPolicy
    from repro.phases.policy import BBVACEPolicy
    from repro.sim import driver
    from repro.sim import engine as engine_mod
    from repro.sim import schedule as schedule_mod
    from repro.sim.config import ExperimentConfig
    from repro.sim.pools import worker as worker_mod
    from repro.sim.pools.local import LocalProcessPool
    from repro.sim.store import ResultStore
    from repro.vm import blockjit, jit
    from repro.vm.fastvm import FastVirtualMachine
    from repro.vm.vm import AdaptationHooks
    from repro.workloads import specjvm

    TRACER = tracer
    tracer._fuse_base = _fuse_counters()
    os.register_at_fork(after_in_child=tracer.after_fork)
    patched = []

    def patch(bindings, make):
        original = _get(*bindings[0])
        wrapper = make(original)
        for owner, key in bindings:
            patched.append((owner, key, _get(owner, key)))
            _set(owner, key, wrapper)

    def span(name, **kwargs):
        return lambda fn: tracer.span(name, fn, **kwargs)

    def hot(name):
        return lambda fn: tracer.hot(name, fn)

    patch(
        [(specjvm, "build_benchmark"), (driver, "build_benchmark")],
        span("workloads.build"),
    )
    patch([(jit.BlockDecoder, "table")], span("vm.decode"))
    patch(
        [(jit, "compile_fused_block"), (blockjit, "compile_fused_block")],
        span("vm.decode"),
    )
    patch([(FastVirtualMachine, "run")], span("vm.kernel"))
    for cls, name in (
        (HotspotACEPolicy, "core.hook"),
        (BBVACEPolicy, "phases.hook"),
    ):
        for attr in policy_hooks(cls, AdaptationHooks):
            patch([(cls, attr)], hot(name))
    patch([(driver, "build_machine")], span("uarch.build_machine"))
    patch(
        [(worker_mod, "execute"), (driver, "execute")],
        span("sim.driver", after=_after_execute, cell_of=_cell_of),
    )
    patch([(engine_mod.Engine, "run")], span("sim.engine", after=_after_run))
    patch([(ExperimentConfig, "fingerprint")], hot("sim.engine.fingerprint"))
    patch([(ResultStore, "put_many")], span("sim.store.put", after=_after_put))
    patch([(ResultStore, "get")], span("sim.store.get", after=_after_get))
    patch(
        [(LocalProcessPool, "start")],
        span("sim.pools.start", after=_after_start),
    )
    patch(
        [(LocalProcessPool, "submit_chunk")],
        span("sim.pools.submit", after=_after_submit),
    )
    patch(
        [(worker_mod, "pool_initializer")],
        span("sim.pools.warmup", after=_after_worker_step),
    )
    patch(
        [(worker_mod, "run_chunk")],
        span(
            "sim.pools.chunk",
            after=_after_worker_step,
            label_of=lambda args: _chunk_label(args[0]),
        ),
    )
    patch([(schedule_mod, "plan_round")], span("sim.schedule.plan"))
    for table in (cli.SUITE_EXHIBITS, cli.STATIC_EXHIBITS):
        for key in list(table):
            patch([(table, key)], span("report.render"))
    return patched


def uninstall(patched):
    """Undo :func:`install` (the self-test restores its process)."""
    global TRACER
    for owner, key, original in reversed(patched):
        _set(owner, key, original)
    TRACER = None


def _get(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if inspect.isclass(owner):
        return vars(owner)[key]
    return getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _cell_of(args):
    spec = args[0]
    return f"{spec.benchmark_name}/{spec.scheme}/{spec.config.seed}"


def _chunk_label(payload):
    index, _, attempt = payload[0][0]
    return f"{index}:{attempt}"


def _after_execute(args, result, start, end):
    TRACER.add("vm.instructions", result.instructions)
    if TRACER.role == "worker":
        TRACER.flush()


def _after_worker_step(args, result, start, end):
    if TRACER.role == "worker":
        TRACER.flush()


def _after_run(args, result, start, end):
    stats = args[0].stats
    for field in (
        "rounds_planned",
        "rounds_lpt",
        "predicted_makespan_s",
        "actual_makespan_s",
    ):
        TRACER.counters[f"engine.{field}"] = getattr(stats, field)


def _after_put(args, result, start, end):
    TRACER.add(
        "sim.store.bytes_written", sum(os.path.getsize(p) for p in result)
    )


def _after_get(args, result, start, end):
    TRACER.add("sim.store.hits", result is not None)


def _after_start(args, result, start, end):
    TRACER.counters["sim.pools.workers"] = args[0].workers
    if result:
        TRACER.add("sim.pools.spawn_s", end - start)
        TRACER.spawn_pending = True


def _after_submit(args, future, start, end):
    """Count the payload and time the chunk's round trip.

    The first submit after a spawn forks the workers, so its time is
    spawn time.  The done-callback runs on the executor's management
    thread and only appends to a list.
    """
    tracer = TRACER
    if tracer.spawn_pending:
        tracer.spawn_pending = False
        tracer.add("sim.pools.spawn_s", end - start)
    payload = args[1]
    label = _chunk_label(payload)
    payload_bytes = len(pickle.dumps(payload))

    def done(future):
        finished = perf_counter()
        if future.cancelled() or future.exception() is not None:
            return
        reply = future.result()
        warmup, _, chunk_info = reply
        tracer.chunks.append(
            {
                "label": label,
                "submit": start,
                "done": finished,
                "service_s": chunk_info.get("service_s") or 0.0,
                "warm_s": (warmup or {}).get("warm_s", 0.0),
                "payload_bytes": payload_bytes,
                "reply_bytes": len(pickle.dumps(reply)),
            }
        )

    future.add_done_callback(done)


# -- merging ---------------------------------------------------------------


def read_records(trace_dir):
    """Span lists and the last totals record of each traced process."""
    spans, totals = [], {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "spans" in record:
                    pid = record["pid"]
                    spans.extend(dict(span, pid=pid) for span in record["spans"])
                else:
                    totals[record["pid"]] = record
    return spans, list(totals.values())


def write_spans(spans, path):
    """All spans of a traced run, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def layer_metrics(spans, processes, clock, total_s, end):
    """Per-layer table of one traced run.

    ``total_s`` is what the layers must account for: the run's wall time
    when ``clock == "wall"``, the process tree's CPU time when
    ``clock == "cpu"``.  ``end`` is the parent's ``perf_counter`` when
    the run's process exited: the main process's exit (interpreter
    teardown after the program returned) is timed against it.
    """
    column = 1 if clock == "wall" else 2
    totals = {}
    counters = {}
    chunks = []
    for process in processes:
        for name, values in process["totals"].items():
            merged = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                merged[i] += values[i]
        for name, value in process["counters"].items():
            if name.startswith("engine.") or name == "sim.pools.workers":
                counters[name] = value
            else:
                counters[name] = counters.get(name, 0) + value
        chunks.extend(process["chunks"])
        if process["role"] == "main":
            program_end = process["program_end"]
            exit_s = (
                end - program_end[0] - process["flush_s"]
                if clock == "wall"
                else process["atexit"][1] - program_end[1]
            )
            totals["startup.exit"] = [1, exit_s, exit_s]

    def seconds(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[column] for name in names)

    def calls(name):
        return totals.get(name, (0,))[0]

    metrics = {
        metric: seconds(*names) for metric, names in LAYER_TIMES.items()
    }
    insns = counters.get("vm.instructions", 0)
    compiles = counters.get("vm.fuse_compiles", 0)
    hits = counters.get("vm.fuse_hits", 0)
    gets = calls("sim.store.get")
    predicted = counters.get("engine.predicted_makespan_s", 0.0)
    actual = counters.get("engine.actual_makespan_s", 0.0)
    metrics.update(
        {
            "workloads.build_calls": calls("workloads.build"),
            "vm.fuse_compiles": compiles,
            "vm.fuse_hit_ratio": hits / (hits + compiles)
            if hits + compiles
            else 0.0,
            "vm.kernel_ns_per_insn": metrics["vm.kernel_self_s"] * 1e9 / insns
            if insns
            else 0.0,
            "core.hook_calls": calls("core.hook"),
            "phases.hook_calls": calls("phases.hook"),
            "sim.engine.fingerprint_calls": calls("sim.engine.fingerprint"),
            "sim.store.bytes_written": counters.get(
                "sim.store.bytes_written", 0
            ),
            "sim.store.get_calls": gets,
            "sim.store.hit_ratio": counters.get("sim.store.hits", 0) / gets
            if gets
            else 0.0,
            "sim.schedule.rounds_lpt": counters.get("engine.rounds_lpt", 0),
            "sim.schedule.makespan_error": abs(predicted - actual) / actual
            if actual
            else 0.0,
        }
    )
    metrics.update(
        _pool_metrics(chunks, spans, counters.get("sim.pools.workers", 0))
    )
    metrics["sim.pools.spawn_s"] = counters.get("sim.pools.spawn_s", 0.0)
    # The entry program's own time is what no layer wrapper covered.
    attributed = sum(
        values[column] for name, values in totals.items() if name != "program"
    )
    metrics["unattributed_s"] = total_s - attributed
    metrics["unattributed_frac"] = metrics["unattributed_s"] / total_s
    return metrics


def _pool_metrics(chunks, spans, workers):
    """Chunk service, dispatch overhead and utilisation of a pool run.

    A chunk's overhead is the round trip it would have had on an idle
    worker: from when the worker was free (its previous warm-up or chunk
    ended, or the submit, whichever is later) to the start of the
    worker-side chunk, plus from the worker-side end to the parent's
    done-callback.  Queueing behind other chunks is not overhead.
    """
    busy = {}
    worker_chunk = {}
    for span in spans:
        if span["name"] in ("sim.pools.warmup", "sim.pools.chunk"):
            busy.setdefault(span["pid"], []).append((span["start"], span["end"]))
            if span["name"] == "sim.pools.chunk":
                worker_chunk[span["label"]] = span
    overhead = 0.0
    for chunk in chunks:
        span = worker_chunk.get(chunk["label"])
        if span is None:
            continue
        previous = [
            end for start, end in busy[span["pid"]] if end <= span["start"]
        ]
        ready = max([chunk["submit"]] + previous)
        overhead += (span["start"] - ready) + (chunk["done"] - span["end"])
    service = sum(chunk["service_s"] for chunk in chunks)
    wall = (
        max(c["done"] for c in chunks) - min(c["submit"] for c in chunks)
        if chunks
        else 0.0
    )
    return {
        "sim.pools.chunks": len(chunks),
        "sim.pools.warmup_s": sum(c["warm_s"] for c in chunks),
        "sim.pools.service_s": service,
        "sim.pools.overhead_s": overhead,
        "sim.pools.payload_bytes": sum(c["payload_bytes"] for c in chunks),
        "sim.pools.reply_bytes": sum(c["reply_bytes"] for c in chunks),
        "sim.pools.utilization": service / (workers * wall)
        if workers and wall
        else 0.0,
    }


# -- traced program entry --------------------------------------------------


def main(argv):
    """``TRACE_DIR PROGRAM ARGS...``: run ``repro`` (the CLI) or ``grid``
    (perf/grid.py) with every layer wrapped.

    ``$PERF_LAUNCH`` is the parent's ``perf_counter`` when it started this
    process; interpreter start-up is the time from there to this module.
    """
    start = _clocks()
    trace_dir, program, args = argv[0], argv[1], argv[2:]
    tracer = Tracer(trace_dir)
    tracer.record("startup.interp", _T0 - float(os.environ["PERF_LAUNCH"]), _C0)
    tracer.record("trace.bookkeeping", start[0] - _T0, start[1] - _C0)
    if program == "repro":
        from repro import cli as entry
    elif program == "grid":
        import grid as entry
    else:
        raise SystemExit(f"unknown program {program!r}")
    imported = _clocks()
    tracer.record(
        "startup.import", imported[0] - start[0], imported[1] - start[1]
    )
    install(tracer)
    installed = _clocks()
    tracer.record(
        "trace.bookkeeping",
        installed[0] - imported[0],
        installed[1] - imported[1],
    )
    code = tracer.span("program", entry.main)(args)
    tracer.program_end = _clocks()
    atexit.register(tracer.finish)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
