"""Shared fixtures: tiny deterministic programs and machines.

Tests run on small instruction budgets (tens to hundreds of thousands of
instructions); the calibrated full-length experiments live under
benchmarks/.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.workloads.patterns import (
    StackBehavior,
    WorkingSetBehavior,
)

KB = 1024


def make_loop_program(
    trips: int = 20,
    body_insns: int = 30,
    loads: int = 6,
    stores: int = 2,
    span: int = 512,
    outer_trips: int = 100_000,
    callee: bool = True,
) -> Program:
    """main{ loop(outer){ call work } }; work{ loop(trips){ mem } }.

    ``work`` becomes a hotspot after a few outer iterations; its inclusive
    size is roughly ``trips * body_insns``.
    """
    builder = ProgramBuilder(entry="main")
    work = builder.method("work")
    work.region(0x2000_0000, span)
    work.straight("e", 4, "loop")
    work.loop(
        "loop",
        body_insns,
        trips,
        "x",
        loads=loads,
        stores=stores,
        memory=WorkingSetBehavior(span, locality=0.5),
    )
    work.ret("x", 2)
    work.done()

    main = builder.method("main")
    if callee:
        main.loop("top", 3, outer_trips, "end", calls=["work"])
    else:
        main.loop(
            "top", body_insns, outer_trips, "end",
            loads=loads, stores=stores, memory=StackBehavior(),
        )
    main.ret("end", 1)
    main.done()
    return builder.build()


def make_two_tier_program(
    mid_trips: int = 25,
    driver_trips: int = 8,
    mid_span: int = 600,
    driver_span: int = 12 * KB,
    outer_trips: int = 100_000,
) -> Program:
    """main -> driver (L2-band) -> mid (L1D-band): the nesting shape the
    framework manages."""
    builder = ProgramBuilder(entry="main")

    mid = builder.method("mid")
    mid.region(0x2000_0000, mid_span)
    mid.straight("e", 5, "loop")
    mid.loop(
        "loop", 40, mid_trips, "x",
        loads=8, stores=3,
        memory=WorkingSetBehavior(mid_span, locality=0.6),
    )
    mid.ret("x", 2)
    mid.done()

    driver = builder.method("driver")
    driver.region(0x3000_0000, driver_span)
    driver.straight("e", 6, "loop")
    driver.loop(
        "loop", 30, driver_trips, "x",
        loads=6, stores=2,
        memory=WorkingSetBehavior(driver_span, locality=0.2),
        calls=["mid"],
    )
    driver.ret("x", 2)
    driver.done()

    main = builder.method("main")
    main.loop("top", 3, outer_trips, "end", calls=["driver"])
    main.ret("end", 1)
    main.done()
    return builder.build()


@pytest.fixture(scope="session", autouse=True)
def private_default_store(tmp_path_factory):
    """Point the default result store at a session temp directory.

    The default is the CWD-relative ``results/store``: without this, the
    suite would read and write the developer's store, and an entry an
    older checkout left under the same fingerprint would be served in
    place of a simulation.  ``REPRO_STORE_DIR`` covers the subprocesses
    tests start; both settings are restored afterwards.
    """
    from repro.sim.experiment import get_default_store, set_default_store
    from repro.sim.store import ResultStore

    previous_store = get_default_store()
    previous_env = os.environ.get("REPRO_STORE_DIR")
    root = tmp_path_factory.mktemp("store")
    os.environ["REPRO_STORE_DIR"] = str(root)
    set_default_store(ResultStore(root))
    try:
        yield root
    finally:
        set_default_store(previous_store)
        if previous_env is None:
            os.environ.pop("REPRO_STORE_DIR", None)
        else:
            os.environ["REPRO_STORE_DIR"] = previous_env


@pytest.fixture(scope="session", autouse=True)
def private_code_cache(tmp_path_factory):
    """Point the blockjit disk code cache at a session temp directory.

    Without this, the suite would load runners the checkout's cache
    holds instead of compiling them, and fill it with the shapes of
    fuzz and property programs.  Subprocesses that tests start find the
    cache under their bytecode directory, so ``PYTHONPYCACHEPREFIX``
    moves theirs into the session directory too; both settings are
    restored afterwards.
    """
    from repro.vm import blockjit

    previous_dir = blockjit.DISK_CACHE_DIR
    previous_env = os.environ.get("PYTHONPYCACHEPREFIX")
    root = tmp_path_factory.mktemp("code-cache")
    os.environ["PYTHONPYCACHEPREFIX"] = str(root / "pycache")
    blockjit.DISK_CACHE_DIR = str(root / "blockjit")
    try:
        yield root
    finally:
        blockjit.DISK_CACHE_DIR = previous_dir
        if previous_env is None:
            os.environ.pop("PYTHONPYCACHEPREFIX", None)
        else:
            os.environ["PYTHONPYCACHEPREFIX"] = previous_env


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "Rewrite tests/golden/*.json from the current simulation "
            "instead of comparing against it (then commit the diff)."
        ),
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should regenerate golden-trace fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def loop_program() -> Program:
    return make_loop_program()


@pytest.fixture
def two_tier_program() -> Program:
    return make_two_tier_program()


@pytest.fixture
def machine():
    return build_machine(MachineConfig())


@pytest.fixture
def small_config() -> ExperimentConfig:
    return ExperimentConfig(max_instructions=200_000)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)
