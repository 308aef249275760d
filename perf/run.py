"""The repository benchmark: end-to-end and per-layer metrics of ``repro``.

All three workloads, untimed warm-ups first, then ``--rounds`` rounds
in rotating order, then (``--trace``) one traced repetition each::

    python perf/run.py [--seed N] [--rounds K] [--trace] [--smoke] [--out FILE]

One workload for a fixed time, printing one JSON object as the last
line (the form ``BENCHMARK.json``'s command is run in)::

    python perf/run.py --workload suite-cold --seed 7 --seconds 30 --trace 0

Compare two result files written by ``--out``::

    python perf/run.py --compare A.json B.json

Both forms run every output check.  The harness form exits non-zero
when one fails, the single-workload form reports them as ``"correct"``,
and ``--compare`` exits 1 on a regression.  See perf/README.md for the
metrics and what each workload is for.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def stamp():
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure_workload(args, spec):
    """One workload for ``--seconds``; the last stdout line is the result."""
    from harness import FULL, WORKLOADS, Context, compile_bytecode, summarize
    from harness import traced_unit

    workload = WORKLOADS[args.workload]
    ctx = Context(args.seed, FULL, OUT)
    try:
        compile_bytecode()
        workload.prepare(ctx)
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < args.seconds:
            samples.append(workload.unit(ctx))
        counted = list(samples)
        if args.trace:
            traced, values = traced_unit(
                workload, ctx, [s.wall_s for s in samples]
            )
            counted.append(traced)
        else:
            values = summarize(samples)
    finally:
        ctx.close()
    info = stamp()
    print(
        f"{workload.name}: {len(samples)} runs, seed {args.seed}, "
        f"host_cpus {info['host_cpus']}, python {info['python']}, "
        f"load {samples[0].load_before} -> {samples[-1].load_after}"
    )
    for failure in ctx.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": not ctx.failures,
                "attempted": sum(s.cells for s in counted),
                "failed": sum(s.failed for s in counted),
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics
                },
            }
        )
    )
    return 0


def run_harness(args, spec):
    """Warm-ups, rotating timed rounds, optional traced round."""
    from harness import (
        FULL,
        SMOKE,
        WORKLOADS,
        Context,
        compile_bytecode,
        fidelity,
        summarize,
        traced_unit,
    )

    size = SMOKE if args.smoke else FULL
    names = list(WORKLOADS)
    ctx = Context(args.seed, size, OUT)
    result = {
        "stamp": stamp(),
        "seed": args.seed,
        "rounds": args.rounds,
        "size": asdict(size),
        "workloads": {name: {"rounds": [], "samples": []} for name in names},
    }
    try:
        compile_bytecode()
        for name in names:
            WORKLOADS[name].prepare(ctx)
        for round_index in range(args.rounds):
            shift = round_index % len(names)
            for name in names[shift:] + names[:shift]:
                workload = WORKLOADS[name]
                samples = [
                    workload.unit(ctx)
                    for _ in range(workload.units_per_round(size))
                ]
                entry = result["workloads"][name]
                entry["rounds"].append(summarize(samples))
                entry["samples"].extend(asdict(s) for s in samples)
        if args.trace:
            for name in names:
                entry = result["workloads"][name]
                traced, layers = traced_unit(
                    WORKLOADS[name], ctx, [s["wall_s"] for s in entry["samples"]]
                )
                entry["layers"] = layers
                entry["samples_traced"] = [asdict(traced)]
    finally:
        ctx.close()
    suite_fidelity = fidelity(ctx.suite_entries) if ctx.suite_entries else {}
    for name, entry in result["workloads"].items():
        samples = entry["samples"] + entry.get("samples_traced", [])
        cells = sum(s["cells"] for s in samples)
        entry["attempted"] = cells
        entry["failed_frac"] = sum(s["failed"] for s in samples) / cells
        key = "serial" if name == "suite-serial" else "suite"
        entry["results_digest"] = ctx.expected.get(f"{key} results_digest")
        if name == "suite-cold":
            entry["fidelity"] = suite_fidelity
    result["checks"] = ctx.failures
    print_result(result, spec)
    out = Path(args.out) if args.out else OUT / time.strftime(
        "run-%Y%m%d-%H%M%S.json", time.gmtime()
    )
    append_set(out, result)
    print(f"\nresults added to {out}")
    for failure in ctx.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if ctx.failures else 0


def print_result(result, spec):
    from harness import WORKLOADS, quartiles

    info = result["stamp"]
    print(
        f"seed {result['seed']}, {result['rounds']} rounds, "
        f"host_cpus {info['host_cpus']}, python {info['python']}"
    )
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, entry in result["workloads"].items():
        rounds = entry["rounds"]
        per_round = len(entry["samples"]) // max(1, len(rounds))
        print(f"\n{name}  ({len(rounds)} rounds x {per_round} runs)")
        print(f"  {'metric':<22} {'unit':<6} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'n':>4}")
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in rounds]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            print(
                f"  {metric['name']:<22} {metric['unit']:<6} {median:>10.4f} "
                f"{q1:>10.4f} {q3:>10.4f} {len(values):>4}"
            )
        if rounds:
            p75 = statistics.median(r["wall_p75_s"] for r in rounds)
            print(f"  {'wall_p75_s':<22} {'s':<6} {p75:>10.4f}")
        print(
            f"  {'failed_frac':<22} {'ratio':<6} {entry['failed_frac']:>10.4f}"
            f"   ({entry['attempted']} cells attempted)"
        )
        for metric, value in entry.get("fidelity", {}).items():
            print(f"  {metric:<22} {'pp':<6} {value:>10.4f}")
        digest = entry["results_digest"]
        print(f"  {'results_digest':<22} {'sha256':<6} {digest}")
        layers = entry.get("layers")
        if layers:
            clock = WORKLOADS[name].clock
            print(f"  per layer (traced run, {clock} seconds):")
            for metric, value in layers.items():
                print(
                    f"    {metric:<30} {layer_units.get(metric, ''):<8} "
                    f"{value:>14.6g}"
                )


def append_set(path, result):
    """Add one set of runs to a result file (created if missing)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    sets = load_sets(path) if path.exists() else []
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"sets": sets + [result]}, handle, separators=(",", ":"))
        handle.write("\n")


def load_sets(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["sets"]


def verdict(parent, change, better, bound):
    """Verdict on ``change`` against ``parent`` (lists of round values).

    Unresolved where either side's spread (IQR over median) exceeds the
    bound, unless every change value beats every parent value; a
    regression when the median is worse by more than the bound; better
    when it improved by more than the parent's spread.
    """
    from harness import quartiles

    def spread(values):
        q1, median, q3 = quartiles(values)
        return (q3 - q1) / median if median else 0.0

    base = statistics.median(parent)
    sign = 1 if better == "lower" else -1
    worse = sign * (statistics.median(change) - base) / base
    if max(spread(parent), spread(change)) > bound:
        wins = all(sign * (c - p) < 0 for c in change for p in parent)
        return worse, "better" if wins else "unresolved"
    if worse > bound:
        return worse, "regression"
    if worse < -spread(parent):
        return worse, "better"
    return worse, "worse within bound" if worse > 0 else "within noise"


def compare(path_a, path_b, spec):
    """One row per metric per workload: both medians and IQRs, verdict."""
    from harness import quartiles

    parent, change = load_sets(path_a), load_sets(path_b)
    cpus = {s["stamp"]["host_cpus"] for s in parent + change}
    if len(cpus) > 1:
        print(f"refusing to compare runs from hosts with {sorted(cpus)} CPUs")
        return 2
    regressions = 0
    print(f"{'workload':<11} {'metric':<14} {'unit':<6} "
          f"{'A median [q1, q3]':>28} {'B median [q1, q3]':>28} "
          f"{'worse by':>8}  verdict")
    for name in parent[0]["workloads"]:
        for metric in spec["end_to_end"]:
            a, b = (
                [
                    r[metric["name"]]
                    for s in sets
                    for r in s["workloads"][name]["rounds"]
                ]
                for sets in (parent, change)
            )
            if not a or not b:
                continue
            worse, label = verdict(a, b, metric["better"], metric["bound"])
            regressions += label == "regression"
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"{name:<11} {metric['name']:<14} {metric['unit']:<6} "
                f"{qa[1]:>10.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                f"{qb[1]:>10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                f"{100 * worse:>+7.1f}%  {label}"
            )
        for key in ("results_digest", "failed_frac", "fidelity"):
            a = {json.dumps(s["workloads"][name].get(key)) for s in parent}
            b = {json.dumps(s["workloads"][name].get(key)) for s in change}
            if a != {"null"}:
                same = "identical" if a == b else "CHANGED"
                print(f"{name:<11} {key:<14} {same}")
    return 1 if regressions else 0


def parse_args(argv):
    from harness import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="with --workload: how long to keep starting repetitions",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
        help="add one traced repetition and report the per-layer metrics",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny workloads (self-test)"
    )
    parser.add_argument("--out", help="result file to add this set of runs to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    return parser.parse_args(argv)


def main(argv=None):
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    args = parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload:
        return measure_workload(args, spec)
    return run_harness(args, spec)


def _terminate(signum, frame):
    # Unwinds through the ``finally`` that stops the spawner.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
