"""Import layering: the data layer never loads the simulator.

A warm ``repro all`` answers every cell from the result store, so it
must not import the kernels, the policies, the machine model, the pool
worker or ``multiprocessing`` (docs/INTERNALS.md, "Import layering").
A cold serial run simulates in-process, so it never loads the process
pool or ``multiprocessing``.
Every module must also import on its own, in a fresh ``repro``
namespace: an eager package ``__init__`` can no longer hide a cycle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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

#: Runs the CLI in-process, then prints which simulation-layer modules
#: ended up in ``sys.modules``.
_RUN_CLI = """
import json, sys
from repro import cli
code = cli.main(sys.argv[2:])
prefixes = json.loads(sys.argv[1])
loaded = sorted(
    name for name in sys.modules
    if any(
        name == prefix.rstrip(".") or name.startswith(prefix)
        for prefix in prefixes
    )
)
print("LOADED " + json.dumps(loaded))
sys.exit(code)
"""


def _run(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _loaded_by_repro_all(store: Path, cwd: Path) -> list:
    proc = _run(
        "-c", _RUN_CLI, json.dumps(SIMULATION_LAYER),
        "all", "--instructions", "20000", "--jobs", "2",
        "--store-dir", str(store),
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    marker = proc.stdout.rstrip().splitlines()[-1]
    assert marker.startswith("LOADED "), proc.stdout[-500:]
    return json.loads(marker[len("LOADED "):])


def test_warm_repro_all_never_loads_the_simulator(tmp_path):
    store = tmp_path / "store"
    cold = _loaded_by_repro_all(store, tmp_path)
    # Not vacuous: the cold run simulated through a forked pool, so
    # every listed layer was loaded there.
    for prefix in SIMULATION_LAYER:
        assert any(
            name == prefix.rstrip(".") or name.startswith(prefix)
            for name in cold
        ), prefix
    warm = _loaded_by_repro_all(store, tmp_path)
    assert warm == []



def test_cold_serial_run_never_loads_the_process_pool(tmp_path):
    # A serial engine builds no pool: its cells run in-process, so
    # neither the pool module nor multiprocessing is imported.
    pool_layer = ("repro.sim.pools.local", "multiprocessing")
    proc = _run(
        "-c", _RUN_CLI, json.dumps(pool_layer),
        "quick", "--instructions", "20000", "--no-store",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "slowdown:" in proc.stdout  # the cells really simulated
    marker = proc.stdout.rstrip().splitlines()[-1]
    assert marker == "LOADED []", marker


def test_serial_cell_failure_never_loads_the_process_pool(tmp_path):
    # Classifying a terminal failure asks about broken pools only when
    # there is a pool: a serial run that skips a failed cell stays off
    # the pool layer too.
    pool_layer = ("repro.sim.pools.local", "multiprocessing")
    proc = _run(
        "-c", _RUN_CLI, json.dumps(pool_layer),
        "quick", "--instructions", "20000", "--no-store",
        "--inject", "seed=1,cell_exception=1.0", "--on-error", "skip",
        cwd=tmp_path,
    )
    marker = proc.stdout.rstrip().splitlines()[-1]
    assert marker == "LOADED []", marker


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
    from repro.sim.driver import (  # noqa: F401
        KERNEL_REGISTRY,
        execute,
        run_benchmark,
    )

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
