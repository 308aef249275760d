"""Import layering: the data layer never loads the simulator.

A warm ``repro all`` answers every cell from the result store, so it
must not import the kernels, the policies, the machine model, the pool
worker or ``multiprocessing`` (docs/INTERNALS.md, "Import layering"),
nor the machinery only those paths use: the pool's futures, traceback
formatting, OpenSSL, fault injection, the exporters and the flight
recorder.  A cold serial run simulates in-process, so it never loads
the process pool or ``multiprocessing``.
Every module must also import on its own, in a fresh ``repro``
namespace: an eager package ``__init__`` can no longer hide a cycle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Modules the warm path must not load (a trailing ``.`` means the
#: package and everything under it).
SIMULATION_LAYER = (
    "repro.vm.",
    "repro.core.policy",
    "repro.phases.policy",
    "repro.uarch.machine",
    "repro.sim.driver",
    "repro.sim.pools.worker",
    "concurrent.futures.process",
    "multiprocessing",
)

#: Modules the warm path must not load either, though the data layer
#: once did: the pool's futures (which import ``logging``), traceback
#: formatting, OpenSSL (``hashlib``'s ``_hashlib``), fault injection,
#: the exporters and the flight recorder.
START_UP_LAYER = (
    "concurrent.futures",
    "logging",
    "traceback",
    "_hashlib",
    "repro.faults",
    "repro.obs.export",
    "repro.obs.recorder",
)

#: Runs the CLI in-process, then prints the modules it added to a bare
#: interpreter's ``sys.modules`` (site hooks may preload some).
_RUN_CLI = """
import sys
bare = set(sys.modules)
import json
from repro import cli
code = cli.main(sys.argv[1:])
print("LOADED " + json.dumps(sorted(set(sys.modules) - bare)))
sys.exit(code)
"""


def _run(*args: str, cwd: Path, **env: str) -> subprocess.CompletedProcess:
    # An inherited flight directory would load the recorder.
    base = {
        key: value
        for key, value in os.environ.items()
        if key != "REPRO_FLIGHT_DIR"
    }
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(base, PYTHONPATH=str(SRC_DIR), **env),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _loaded(proc: subprocess.CompletedProcess, prefixes) -> list:
    """The modules the ``_RUN_CLI`` run in ``proc`` newly loaded that
    match ``prefixes`` (a trailing ``.`` means the package and
    everything under it)."""
    marker = proc.stdout.rstrip().splitlines()[-1]
    assert marker.startswith("LOADED "), proc.stdout[-500:]
    return [
        name
        for name in json.loads(marker[len("LOADED "):])
        if any(
            name == prefix.rstrip(".") or name.startswith(prefix)
            for prefix in prefixes
        )
    ]


def _repro_all(store: Path, cwd: Path, **env: str):
    proc = _run(
        "-c", _RUN_CLI,
        "all", "--instructions", "20000", "--jobs", "2",
        "--store-dir", str(store),
        cwd=cwd, **env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """A cold ``repro all --jobs 2`` into a fresh store, then a warm one
    the store answers whole: ``(store, cold, warm)``."""
    work = tmp_path_factory.mktemp("suite")
    store = work / "store"
    cold = _repro_all(store, work)
    warm = _repro_all(store, work)
    return store, cold, warm


def test_warm_repro_all_never_loads_the_simulator(suite_runs):
    _, cold, warm = suite_runs
    # Not vacuous: the cold run simulated through a forked pool, so
    # every listed layer was loaded there.
    for prefix in SIMULATION_LAYER:
        assert _loaded(cold, (prefix,)), prefix
    assert _loaded(warm, SIMULATION_LAYER) == []


def test_warm_repro_all_loads_no_pool_fault_or_exporter_stack(suite_runs):
    _, cold, warm = suite_runs
    # Not vacuous: the pool path waits on concurrent.futures.
    assert _loaded(cold, ("concurrent.futures",))
    assert _loaded(warm, START_UP_LAYER) == []


def test_no_run_loads_openssl(suite_runs):
    # Fingerprints, runner code-cache keys and fault draws hash with
    # CPython's own SHA-256 (repro.hashing), cold or warm.
    _, cold, warm = suite_runs
    assert _loaded(cold, ("_hashlib",)) == []
    assert _loaded(warm, ("_hashlib",)) == []


def test_flight_dir_still_loads_the_recorder(suite_runs, tmp_path):
    store, _, _ = suite_runs
    flights = tmp_path / "flights"
    warm = _repro_all(store, tmp_path, REPRO_FLIGHT_DIR=str(flights))
    assert _loaded(warm, ("repro.obs.recorder",)) == ["repro.obs.recorder"]
    (manifest,) = flights.glob("*.jsonl")
    kinds = [
        json.loads(line)["kind"]
        for line in manifest.read_text().splitlines()
    ]
    assert kinds[0] == "begin_batch" and kinds[-1] == "end_batch"
    assert kinds.count("cell") == 21



def test_cold_serial_run_never_loads_the_process_pool(tmp_path):
    # A serial engine builds no pool: its cells run in-process, so
    # neither the pool module nor multiprocessing is imported.
    pool_layer = ("repro.sim.pools.local", "multiprocessing")
    proc = _run(
        "-c", _RUN_CLI,
        "quick", "--instructions", "20000", "--no-store",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "slowdown:" in proc.stdout  # the cells really simulated
    assert _loaded(proc, pool_layer) == []


def test_serial_cell_failure_never_loads_the_process_pool(tmp_path):
    # Classifying a terminal failure asks about broken pools only when
    # there is a pool: a serial run that skips a failed cell stays off
    # the pool layer too.
    pool_layer = ("repro.sim.pools.local", "multiprocessing")
    proc = _run(
        "-c", _RUN_CLI,
        "quick", "--instructions", "20000", "--no-store",
        "--inject", "seed=1,cell_exception=1.0", "--on-error", "skip",
        cwd=tmp_path,
    )
    assert _loaded(proc, pool_layer) == []


def _modules():
    root = SRC_DIR / "repro"
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(SRC_DIR).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


#: Imports each module in turn after purging every ``repro`` module, so
#: each one starts from an empty namespace; prints the failures.
_IMPORT_EACH = """
import importlib, json, sys, traceback
failures = {}
for name in json.loads(sys.argv[1]):
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
print(json.dumps(failures))
"""


def test_every_module_imports_from_an_empty_namespace(tmp_path):
    modules = list(_modules())
    assert "repro.sim.engine" in modules and "repro" in modules
    proc = _run("-c", _IMPORT_EACH, json.dumps(modules), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    failures = json.loads(proc.stdout)
    assert not failures, "\n".join(
        f"{name}:\n{error}" for name, error in failures.items()
    )


def test_public_names_still_import_from_their_old_homes():
    import repro
    from repro.core import policy as core_policy
    from repro.phases import policy as phases_policy
    from repro.sim import driver, results
    from repro.sim.driver import KERNEL_REGISTRY, execute  # noqa: F401

    assert callable(repro.ACEFramework) and callable(repro.build_benchmark)
    assert repro.RunSpec is results.RunSpec
    for name in (
        "SCHEMES",
        "RunSpec",
        "RunResult",
        "HotspotSummary",
        "HotspotPolicyStats",
        "BBVPolicyStats",
    ):
        assert getattr(driver, name) is getattr(results, name), name
    assert core_policy.HotspotPolicyStats is results.HotspotPolicyStats
    assert phases_policy.BBVPolicyStats is results.BBVPolicyStats
