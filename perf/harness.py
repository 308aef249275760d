"""Workloads, child processes and output checks of the repository benchmark.

One harness runs one child at a time: every workload is a closed loop
with a single client, and the next child starts when the previous one
has exited.  Each child is started by the spawner (``spawner.py``) and
reaped with ``os.wait4``, so its CPU time includes the pool workers it
waited for and its peak RSS is the largest process of that run alone
(``RUSAGE_CHILDREN`` would report a lifetime high-water mark).  Children
run with ``PYTHONHASHSEED=0`` because the simulation depends on it, and
with ``src`` on ``PYTHONPATH``.
"""

import compileall
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing
from spawner import SRC, ChildRun

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

#: Pool workers per suite run; never more than the 2-CPU reference host.
JOBS = 2
#: ``ExperimentConfig.seed``.
DEFAULT_SEED = 12345
#: Benchmarks x schemes of one suite.
GRID = 21

PROGRESS = re.compile(r"^\[(\d+)/(\d+)\] (\S+)/(\S+) \((\w+), (\d+) in flight")
RESOLVED_PREFIX = "(suite resolved in "


@dataclass(frozen=True)
class Size:
    """How much work one unit of each workload does."""

    #: ``--instructions`` of the suite runs (None: the CLI default, 6M).
    suite_instructions: Optional[int]
    #: suite-warm invocations in one harness round.
    warm_invocations: int
    #: ``--instructions`` of the suite-serial runs.
    serial_instructions: int
    #: Budget at which the reference-kernel check re-runs the grid.
    check_instructions: int


FULL = Size(None, 40, 3_000_000, 200_000)
SMOKE = Size(200_000, 3, 20_000, 5_000)


@dataclass
class Sample:
    """One child process run: the unit every end-to-end metric is taken on."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    cells: int
    failed: int
    insns: int
    #: ``results_digest`` of the run's store (None: it wrote no store).
    digest: Optional[str]
    load_before: List[float]
    load_after: List[float]


@dataclass
class Progress:
    t: float
    benchmark: str
    scheme: str
    source: str
    in_flight: int


# -- child processes ---------------------------------------------------------


class Spawner:
    """Runs every child through ``spawner.py``, a small process of its own
    (that module says why), and stops it on :meth:`close`."""

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, str(PERF / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._busy = False

    def run(self, argv: List[str], stdout_path: Path) -> ChildRun:
        request = {"argv": argv, "stdout": str(stdout_path)}
        self._busy = True
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"the spawner exited running {argv[:4]}")
        self._busy = False
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"could not run {argv[:4]}: {reply['error']}")
        return ChildRun(**reply["ok"])

    def close(self) -> None:
        """End of input stops an idle spawner; one still running a child
        (the harness was interrupted) is told to kill and reap it."""
        try:
            self._process.stdin.close()
        except OSError:
            pass  # it already exited
        if self._busy:
            self._process.terminate()
        self._process.wait()
        self._process.stdout.close()


def compile_bytecode() -> None:
    """Fill ``__pycache__`` so no timed child pays for compiling."""
    for directory in (SRC, PERF):
        compileall.compile_dir(str(directory), quiet=1)


# -- outputs -----------------------------------------------------------------


def progress_lines(run: ChildRun) -> List[Progress]:
    lines = []
    for t, text in run.lines:
        match = PROGRESS.match(text)
        if match:
            lines.append(
                Progress(t, match[3], match[4], match[5], int(match[6]))
            )
    return lines


def read_store(root: Path) -> Dict[Tuple[str, str, str], dict]:
    """Every entry of a result store, keyed by (benchmark, scheme,
    fingerprint)."""
    entries = {}
    for path in sorted(Path(root).glob("*/*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        key = (payload["benchmark"], payload["scheme"], payload["fingerprint"])
        entries[key] = payload
    return entries


def results_digest(entries: Dict[Tuple[str, str, str], dict]) -> str:
    """sha256 over every cell's ``RunResult.to_dict()``, in key order."""
    digest = hashlib.sha256()
    for key in sorted(entries):
        digest.update("|".join(key).encode())
        digest.update(
            json.dumps(
                entries[key]["result"], sort_keys=True, separators=(",", ":")
            ).encode()
        )
    return digest.hexdigest()


def exhibit_text(stdout: str) -> str:
    """The exhibits a suite run printed, minus its timing line."""
    return "\n".join(
        line
        for line in stdout.splitlines()
        if not line.startswith(RESOLVED_PREFIX)
    )


def pool_setup_end(progress: List[Progress], meta: Dict) -> float:
    """When the first cell of a pool run started simulating.

    A chunk's reply notifies its cells back to back, all with the
    in-flight count of that moment, and those cells ran one after
    another on one worker.  So each worker started its first cell at
    its first line minus the seconds of the cells in that first reply
    (``meta`` maps ``(benchmark, scheme)`` to the store entry's
    ``elapsed_s`` and ``executed_by``).
    """
    bursts: Dict[str, list] = {}
    for line in progress:
        info = meta[(line.benchmark, line.scheme)]
        burst = bursts.get(info["executed_by"])
        if burst is None:
            bursts[info["executed_by"]] = [line.t, line.in_flight, info["elapsed_s"]]
        elif burst[1] == line.in_flight:
            burst[2] += info["elapsed_s"]
        else:
            burst[1] = None
    return min(t - elapsed for t, _, elapsed in bursts.values())


def fidelity(entries: Dict[Tuple[str, str, str], dict]) -> Dict[str, float]:
    """The hotspot scheme's distance to the paper (percentage points)."""
    from repro.report.paper import PAPER
    from repro.sim.driver import RunResult
    from repro.sim.experiment import BenchmarkComparison, SuiteResults

    runs = {
        (bench, scheme): RunResult.from_dict(payload["result"])
        for (bench, scheme, _), payload in entries.items()
    }
    suite = SuiteResults()
    for bench in sorted({bench for bench, _ in runs}):
        suite.comparisons[bench] = BenchmarkComparison(
            bench,
            runs[(bench, "baseline")],
            runs[(bench, "bbv")],
            runs[(bench, "hotspot")],
        )
    figure3, figure4 = PAPER["figure3"], PAPER["figure4"]
    return {
        "l1d_gap_pp": 100 * abs(
            suite.average_energy_reduction("hotspot", "L1D")
            - figure3["avg_l1d_reduction"]["hotspot"]
        ),
        "l2_gap_pp": 100 * abs(
            suite.average_energy_reduction("hotspot", "L2")
            - figure3["avg_l2_reduction"]["hotspot"]
        ),
        "slowdown_gap_pp": 100 * abs(
            suite.average_slowdown("hotspot") - figure4["avg"]["hotspot"]
        ),
    }


# -- statistics --------------------------------------------------------------


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(samples: List[Sample]) -> Dict[str, float]:
    """The end-to-end metrics of one run (or one harness round).

    Times and rates are the run's best repetition.  On a shared host a
    repetition runs either at the host's uncontended speed or slowed by
    its neighbours, and the share of slowed ones drifts over minutes, so
    the median of a run moves with the neighbours while its best stays
    put (perf/README.md has the measurements).  Set-up time and memory
    are medians.
    """
    ok = [s for s in samples if s.cells > s.failed] or samples
    walls = [s.wall_s for s in ok]
    return {
        "wall_s": min(walls),
        "wall_p75_s": quartiles(walls)[2],
        "cpu_s": min(s.cpu_s for s in ok),
        "setup_s": statistics.median(s.setup_s for s in ok),
        "sim_mips": max(s.insns / s.wall_s / 1e6 for s in ok),
        "cells_per_s": max(s.cells / s.wall_s for s in ok),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
    }


# -- workloads ---------------------------------------------------------------


class Context:
    """State and check results shared by the units of one benchmark run."""

    def __init__(self, seed: int, size: Size, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        work_root = PERF / ".work"
        work_root.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(dir=work_root))
        self.spawner = Spawner()
        self.failures: List[str] = []
        self.expected: Dict[str, str] = {}
        #: A filled suite store, its entries and the suite's exhibits.
        self.suite_store: Optional[Path] = None
        self.suite_entries: Dict = {}
        #: ``perf_counter`` when the last child exited.
        self.last_end = 0.0

    def close(self) -> None:
        self.spawner.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def expect(self, key: str, value: str) -> None:
        """``value`` must equal what the first unit recorded under ``key``."""
        first = self.expected.setdefault(key, value)
        self.check(value == first, f"{key} differs between repetitions")

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work_dir))

    def launch(self, program: str, args: List[str], trace_dir=None) -> ChildRun:
        if trace_dir is not None:
            argv = [sys.executable, str(PERF / "tracing.py"), str(trace_dir)]
            argv += [program, *args]
        elif program == "repro":
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(PERF / "grid.py"), *args]
        run = self.spawner.run(argv, self.work_dir / "stdout.txt")
        self.last_end = run.launch + run.wall_s
        tail = " | ".join(text for _, text in run.lines[-3:])
        self.check(
            run.returncode == 0,
            f"{program} {' '.join(args[:2])} exited {run.returncode}: {tail}",
        )
        return run

    def sample(self, run, progress, cells, insns, setup_s, digest=None):
        ok = sum(p.source != "failed" for p in progress)
        return Sample(
            wall_s=run.wall_s,
            cpu_s=run.cpu_s,
            peak_rss_mb=run.peak_rss_mb,
            setup_s=setup_s,
            cells=cells,
            failed=cells - ok if run.returncode == 0 else cells,
            insns=insns,
            digest=digest,
            load_before=run.load_before,
            load_after=run.load_after,
        )

    def suite_args(self, store: Path, instructions=None) -> List[str]:
        args = ["all", "--jobs", str(JOBS), "--progress"]
        args += ["--seed", str(self.seed), "--store-dir", str(store)]
        instructions = instructions or self.size.suite_instructions
        if instructions is not None:
            args += ["--instructions", str(instructions)]
        return args


class Workload:
    """One workload; ``BENCHMARK.json`` and perf/README.md say why."""

    name = ""
    #: What the traced run's layers must account for: ``"wall"`` time of
    #: a serial process, or the process tree's ``"cpu"`` time.
    clock = "wall"

    def units_per_round(self, size: Size) -> int:
        return 1

    def prepare(self, ctx: Context) -> None:
        """Untimed set-up and warm-up before the first unit: the first
        child of a process tree runs slower (cold page cache)."""

    def unit(self, ctx: Context, trace_dir=None) -> Sample:
        raise NotImplementedError


class SuiteCold(Workload):
    """``repro all --jobs 2`` into an empty store."""

    name = "suite-cold"
    clock = "cpu"

    def prepare(self, ctx):
        store = ctx.fresh_dir("warm-up-")
        ctx.launch("repro", ctx.suite_args(store, ctx.size.check_instructions))
        shutil.rmtree(store, ignore_errors=True)

    def unit(self, ctx, trace_dir=None):
        store = ctx.fresh_dir("cold-")
        run = ctx.launch("repro", ctx.suite_args(store), trace_dir)
        entries = read_store(store)
        progress = progress_lines(run)
        ctx.check(
            len(entries) == GRID
            and len(progress) == GRID
            and all(p.source == "simulated" for p in progress),
            f"suite-cold resolved {len(progress)} cells into {len(entries)} "
            f"entries, expected {GRID} simulated",
        )
        digest = results_digest(entries)
        ctx.expect("suite results_digest", digest)
        ctx.expect("suite exhibit text", exhibit_text(run.stdout))
        meta = {(b, s): e.get("meta") for (b, s, _), e in entries.items()}
        setup_end = (
            pool_setup_end(progress, meta)
            if run.returncode == 0 and all(meta.values())
            else run.launch + run.wall_s
        )
        sample = ctx.sample(
            run,
            progress,
            GRID,
            sum(e["result"]["instructions"] for e in entries.values()),
            setup_end - run.launch,
            digest,
        )
        if ctx.suite_store is None and run.returncode == 0:
            ctx.suite_store, ctx.suite_entries = store, entries
        else:
            shutil.rmtree(store, ignore_errors=True)
        return sample


class SuiteWarm(Workload):
    """``repro all --jobs 2`` against the store a cold run filled."""

    name = "suite-warm"

    def units_per_round(self, size):
        return size.warm_invocations

    def prepare(self, ctx):
        if ctx.suite_store is None:
            SuiteCold().unit(ctx)
        self.unit(ctx)

    def unit(self, ctx, trace_dir=None):
        run = ctx.launch("repro", ctx.suite_args(ctx.suite_store), trace_dir)
        progress = progress_lines(run)
        ctx.check(
            len(progress) == GRID and all(p.source == "store" for p in progress),
            f"suite-warm resolved {len(progress)} cells, expected {GRID} "
            "store hits",
        )
        ctx.expect("suite exhibit text", exhibit_text(run.stdout))
        # The store it served from must come out unchanged.
        digest = results_digest(read_store(ctx.suite_store))
        ctx.expect("suite results_digest", digest)
        return ctx.sample(
            run,
            progress,
            GRID,
            sum(e["result"]["instructions"] for e in ctx.suite_entries.values()),
            (progress[0].t if progress else run.launch + run.wall_s)
            - run.launch,
            digest,
        )


class SuiteSerial(Workload):
    """perf/grid.py: the grid through ``run_suite`` on the serial engine."""

    name = "suite-serial"

    def args(self, ctx, store, instructions, kernel="fast"):
        return [
            "--seed", str(ctx.seed),
            "--instructions", str(instructions),
            "--kernel", kernel,
            "--store-dir", str(store),
        ]

    def unit(self, ctx, trace_dir=None):
        store = ctx.fresh_dir("serial-")
        args = self.args(ctx, store, ctx.size.serial_instructions)
        run = ctx.launch("grid", args, trace_dir)
        entries = read_store(store)
        progress = progress_lines(run)
        ctx.check(
            len(entries) == GRID
            and len(progress) == GRID
            and all(p.source == "simulated" for p in progress),
            f"suite-serial resolved {len(progress)} cells into {len(entries)} "
            f"entries, expected {GRID} simulated",
        )
        digest = results_digest(entries)
        ctx.expect("serial results_digest", digest)
        meta = {(b, s): e.get("meta") for (b, s, _), e in entries.items()}
        # The first line is the first cell, which started at set-up's end.
        first = progress and meta.get((progress[0].benchmark, progress[0].scheme))
        setup_end = (
            progress[0].t - first["elapsed_s"]
            if first
            else run.launch + run.wall_s
        )
        sample = ctx.sample(
            run,
            progress,
            GRID,
            sum(e["result"]["instructions"] for e in entries.values()),
            setup_end - run.launch,
            digest,
        )
        shutil.rmtree(store, ignore_errors=True)
        return sample

    def prepare(self, ctx):
        """The reference-kernel check, which also warms up: the grid on
        the fast and the reference kernel at ``check_instructions``;
        every cell must match field for field."""
        stores = {}
        for kernel in ("fast", "reference"):
            store = ctx.fresh_dir(f"{kernel}-")
            args = self.args(ctx, store, ctx.size.check_instructions, kernel)
            ctx.launch("grid", args)
            stores[kernel] = {
                (b, s): e["result"] for (b, s, _), e in read_store(store).items()
            }
        fast, slow = stores["fast"], stores["reference"]
        ctx.check(
            len(fast) == GRID and fast.keys() == slow.keys(),
            f"reference check resolved {len(fast)} fast and {len(slow)} "
            f"reference cells, expected {GRID} each",
        )
        for cell in sorted(fast.keys() & slow.keys()):
            a, b = fast[cell], slow[cell]
            fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            ctx.check(
                not fields,
                f"{cell[0]}/{cell[1]}: reference kernel differs from fast "
                f"in {fields}",
            )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SuiteCold(), SuiteWarm(), SuiteSerial())
}


def traced_unit(workload: Workload, ctx: Context, untraced_walls):
    """One repetition with every layer wrapped; returns the sample and
    its per-layer table, and writes ``spans-<workload>.jsonl``.  The
    tracing overhead is its wall over the median of ``untraced_walls``."""
    trace_dir = ctx.fresh_dir("trace-")
    sample, end = workload.unit(ctx, trace_dir), ctx.last_end
    spans, processes = tracing.read_records(trace_dir)
    tracing.write_spans(spans, ctx.out_dir / f"spans-{workload.name}.jsonl")
    total = sample.wall_s if workload.clock == "wall" else sample.cpu_s
    layers = tracing.layer_metrics(spans, processes, workload.clock, total, end)
    layers["trace.overhead"] = sample.wall_s / statistics.median(untraced_walls)
    return sample, layers
