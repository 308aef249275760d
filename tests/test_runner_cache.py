"""The blockjit disk code cache under ``blockjit._exec``.

Compiled runner and closure code is kept on disk, keyed by its source
(docs/INTERNALS.md, "The code cache").  A later process loads the code
instead of compiling it; a damaged entry or an unwritable directory
falls back to compiling exactly as without the cache, and results never
depend on which of the two produced the code.
"""

from __future__ import annotations

import importlib.util
import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.vm import blockjit

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

SOURCE = "def answer(x):\n    return x * 6 + BASE\n"
LABEL = "test:answer"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch) -> Path:
    """An empty disk cache for one test."""
    directory = tmp_path / "blockjit"
    monkeypatch.setattr(blockjit, "DISK_CACHE_DIR", str(directory))
    return directory


def run_exec():
    """Build ``answer`` through ``_exec``; returns (function, counter
    deltas)."""
    before = dict(blockjit.CACHE_STATS)
    fn = blockjit._exec(SOURCE, "answer", LABEL, {"BASE": 1})
    delta = {
        name: blockjit.CACHE_STATS[name] - before[name]
        for name in ("compiles", "loads", "writes")
    }
    return fn, delta


def entries(directory: Path) -> list:
    return sorted(directory.iterdir())


class TestDiskCache:
    def test_second_exec_loads_and_compiles_nothing(self, cache_dir):
        fn, delta = run_exec()
        assert delta == {"compiles": 1, "loads": 0, "writes": 1}
        assert len(entries(cache_dir)) == 1
        loaded, delta = run_exec()
        assert delta == {"compiles": 0, "loads": 1, "writes": 0}
        assert loaded(7) == fn(7) == 43
        # Tracebacks and profiles still name the generated code.
        assert loaded.__code__.co_filename == f"<blockjit:{LABEL}>"

    def test_label_and_source_are_both_part_of_the_key(self, cache_dir):
        run_exec()
        blockjit._exec(SOURCE, "answer", "test:other", {"BASE": 1})
        blockjit._exec(SOURCE + "\n", "answer", LABEL, {"BASE": 1})
        assert len(entries(cache_dir)) == 3

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
            pytest.param(lambda data: b"\x00garbage\xff" * 8, id="garbage"),
            pytest.param(
                lambda data: b"\x00\x00\r\n" + data[4:], id="foreign-magic"
            ),
            pytest.param(
                lambda data: data[:4] + marshal.dumps(42),
                id="not-code",
            ),
        ],
    )
    def test_damaged_entry_compiles_and_is_rewritten(self, cache_dir, damage):
        run_exec()
        (entry,) = entries(cache_dir)
        entry.write_bytes(damage(entry.read_bytes()))
        fn, delta = run_exec()
        assert delta == {"compiles": 1, "loads": 0, "writes": 1}
        assert fn(7) == 43
        assert entry.read_bytes().startswith(importlib.util.MAGIC_NUMBER)
        _, delta = run_exec()
        assert delta["loads"] == 1

    def test_unwritable_directory_compiles_and_raises_nothing(
        self, tmp_path, monkeypatch
    ):
        # A regular file where the directory should be: every write
        # fails, whatever the permissions of the user running the suite.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setattr(
            blockjit, "DISK_CACHE_DIR", str(blocker / "blockjit")
        )
        for _ in range(2):
            fn, delta = run_exec()
            assert delta == {"compiles": 1, "loads": 0, "writes": 0}
            assert fn(7) == 43

    def test_no_directory_means_no_disk_cache(self, monkeypatch):
        monkeypatch.setattr(blockjit, "DISK_CACHE_DIR", None)
        for _ in range(2):
            _, delta = run_exec()
            assert delta == {"compiles": 1, "loads": 0, "writes": 0}

    def test_default_directory_sits_with_the_module_bytecode(self):
        pyc = importlib.util.cache_from_source(blockjit.__file__)
        assert blockjit._disk_cache_dir() == os.path.join(
            os.path.dirname(pyc),
            f"blockjit-{sys.implementation.cache_tag}",
        )

    def test_the_suite_never_touches_the_checkout_cache(self):
        # tests/conftest.py points the cache, in this process and in the
        # subprocesses tests start, at a session temp directory.
        assert blockjit.DISK_CACHE_DIR != blockjit._disk_cache_dir()
        assert "PYTHONPYCACHEPREFIX" in os.environ


#: A source with a multi-kilobyte entry, so a torn write would show.
BIG_SOURCE = "def big():\n" + "".join(
    f"    x{k} = {k} * 3\n" for k in range(400)
) + "    return x399\n"

#: Rewrites one key over and over while a sibling process does the same.
CONCURRENT_WRITER_SCRIPT = f"""
import os, sys
from repro.vm import blockjit

blockjit.DISK_CACHE_DIR = sys.argv[1]
source = {BIG_SOURCE!r}
for round in range(30):
    for name in os.listdir(sys.argv[1]) if round else ():
        if not name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(sys.argv[1], name))
            except FileNotFoundError:
                pass
    fn = blockjit._exec(source, "big", "test:big", {{}})
    assert fn() == 1197, f"bad code in round {{round}}"
print("WRITER_OK", sys.argv[2])
"""


def test_two_processes_writing_one_key_leave_a_loadable_entry(
    tmp_path, monkeypatch
):
    directory = tmp_path / "blockjit"
    directory.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    writers = [
        subprocess.Popen(
            [
                sys.executable, "-c", CONCURRENT_WRITER_SCRIPT,
                str(directory), str(index),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for index in range(2)
    ]
    for index, writer in enumerate(writers):
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        assert f"WRITER_OK {index}" in out
    # Whichever replace landed last, one complete entry survives and no
    # temp file is left behind.
    (entry,) = entries(directory)
    assert not entry.name.endswith(".tmp")
    monkeypatch.setattr(blockjit, "DISK_CACHE_DIR", str(directory))
    before = blockjit.CACHE_STATS["loads"]
    assert blockjit._exec(BIG_SOURCE, "big", "test:big", {})() == 1197
    assert blockjit.CACHE_STATS["loads"] == before + 1


def test_cold_and_warm_disk_cache_give_equal_results(cache_dir):
    spec = RunSpec(
        "db", "hotspot", ExperimentConfig(max_instructions=100_000)
    )
    blockjit.clear_cache()
    compiles = blockjit.CACHE_STATS["compiles"]
    cold = execute(spec)
    assert blockjit.CACHE_STATS["compiles"] > compiles
    assert entries(cache_dir)

    blockjit.clear_cache()
    compiles = blockjit.CACHE_STATS["compiles"]
    loads = blockjit.CACHE_STATS["loads"]
    warm = execute(spec)
    assert blockjit.CACHE_STATS["compiles"] == compiles
    assert blockjit.CACHE_STATS["loads"] > loads
    assert warm.to_dict() == cold.to_dict()
