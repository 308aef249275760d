"""Self-test of the benchmark harness: ``pytest perf/`` (not in tier-1).

One smoke-sized harness run (every workload, a traced repetition each,
all output checks) backs the assertions about what the benchmark
prints and measures; the wrapper tests install the tracer in this
process and undo it afterwards.
"""

import contextlib
import io
import sys
import time

import pytest

import harness
import run
import tracing

if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    printed = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = run.main(
            ["--smoke", "--rounds", "1", "--trace", "--out", str(out)]
        )
    elapsed = time.perf_counter() - started
    (result,) = run.load_sets(out)
    return code, printed.getvalue(), result, elapsed


@pytest.fixture
def installed():
    tracer = tracing.Tracer("unused")
    patched = tracing.install(tracer)
    try:
        yield patched
    finally:
        tracing.uninstall(patched)


def test_smoke_run_is_fast_and_passes_its_checks(smoke):
    code, _, result, elapsed = smoke
    assert code == 0, result["checks"]
    assert result["checks"] == []
    assert elapsed < 30.0


def test_every_benchmark_metric_is_printed_with_its_unit(smoke):
    _, printed, _, _ = smoke
    spec = run.load_spec()
    lines = printed.splitlines()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        rows = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
        assert rows, f"{metric['name']} not printed"
        assert all(row[1] == metric["unit"] for row in rows), metric
        # Each workload prints each metric once.
        assert len(rows) == len(harness.WORKLOADS), metric


def test_traced_digest_equals_untraced(smoke):
    _, _, result, _ = smoke
    for name, entry in result["workloads"].items():
        digests = {s["digest"] for s in entry["samples"] + entry["samples_traced"]}
        assert digests == {entry["results_digest"]}, name
        assert entry["results_digest"], name


def test_layers_leave_less_than_a_tenth_unattributed(smoke):
    _, _, result, _ = smoke
    for name, entry in result["workloads"].items():
        assert abs(entry["layers"]["unattributed_frac"]) < 0.10, name


def test_policy_hooks_are_wrapped_on_the_classes(installed):
    from repro.core.policy import HotspotACEPolicy
    from repro.phases.policy import BBVACEPolicy
    from repro.vm.fastvm import _counts_hook
    from repro.vm.vm import AdaptationHooks

    wrapped_classes = {
        owner for owner, _, _ in installed if isinstance(owner, type)
    }
    assert AdaptationHooks not in wrapped_classes
    for cls in (HotspotACEPolicy, BBVACEPolicy):
        hooks = tracing.policy_hooks(cls, AdaptationHooks)
        assert {"on_block", "on_block_counts", "attach"} <= set(hooks)
        for hook in hooks:
            assert hasattr(vars(cls)[hook], "__wrapped__"), (cls, hook)
        policy = cls()
        assert not set(hooks) & set(vars(policy))
        # The fast kernel still sees a count-only class-level hook.
        assert type(policy).on_block is not AdaptationHooks.on_block
        assert _counts_hook(policy, policy.on_block, True) is not None
    baseline = AdaptationHooks()
    assert type(baseline).on_block is AdaptationHooks.on_block
    assert not any(
        hasattr(value, "__wrapped__") for value in vars(AdaptationHooks).values()
    )


def test_wrappers_patch_the_binding_the_caller_looks_up(installed):
    from repro import cli
    from repro.sim import driver
    from repro.sim import schedule as schedule_mod
    from repro.sim.pools import worker as worker_mod
    from repro.vm import jit
    from repro.workloads import specjvm

    callers = [
        (driver, "build_benchmark"),
        (specjvm, "build_benchmark"),
        (driver, "build_machine"),
        (driver, "execute"),
        (worker_mod, "execute"),
        (worker_mod, "run_chunk"),
        (worker_mod, "pool_initializer"),
        (schedule_mod, "plan_round"),
        (jit, "compile_fused_block"),
    ]
    for owner, name in callers:
        assert hasattr(getattr(owner, name), "__wrapped__"), (owner, name)
    for table in (cli.SUITE_EXHIBITS, cli.STATIC_EXHIBITS):
        for name, exhibit in table.items():
            assert hasattr(exhibit, "__wrapped__"), name
    # Both bindings of one function share one wrapper, so a call is
    # counted once whichever binding the caller uses.
    assert driver.build_benchmark is specjvm.build_benchmark


def test_uninstall_restores_every_binding():
    from repro.sim import driver

    original = driver.build_benchmark
    patched = tracing.install(tracing.Tracer("unused"))
    tracing.uninstall(patched)
    assert driver.build_benchmark is original
    for owner, key, value in patched:
        assert tracing._get(owner, key) is value, (owner, key)


def test_compare_flags_a_regression_beyond_the_bound():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert run.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[1] == (
        "regression"
    )
    assert run.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[1] == (
        "better"
    )
    assert run.verdict(parent, parent, "lower", 0.1)[1] == "within noise"
    noisy = [5.0, 10.0, 15.0]
    assert run.verdict(noisy, noisy, "lower", 0.1)[1] == "unresolved"


def test_results_digest_covers_results_only():
    result = {"benchmark": "db", "cycles": 1.5, "ipc": 2.0}
    a = {("db", "bbv", "f"): {"result": result, "meta": {"elapsed_s": 1}}}
    b = {("db", "bbv", "f"): {"result": dict(reversed(list(result.items())))}}
    assert harness.results_digest(a) == harness.results_digest(b)
    c = {("db", "bbv", "f"): {"result": dict(result, cycles=1.6)}}
    assert harness.results_digest(a) != harness.results_digest(c)
