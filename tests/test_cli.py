"""CLI tests (parser wiring and a tiny end-to-end invocation)."""

import json
from dataclasses import replace

import pytest

from repro import cli
from repro.cli import (
    ALL_EXHIBITS,
    QUICK_INSTRUCTIONS,
    build_parser,
    main,
    make_config,
)
from repro.sim import experiment
from repro.sim.config import ExperimentConfig
from repro.sim.engine import Engine


class TestParser:
    def test_exhibit_choices(self):
        parser = build_parser()
        args = parser.parse_args(["figure3"])
        assert args.exhibit == "figure3"
        for name in ALL_EXHIBITS:
            parser.parse_args([name])

    def test_unknown_exhibit_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure9"])

    def test_benchmark_filter(self):
        args = build_parser().parse_args(
            ["table4", "--benchmarks", "db", "mtrt"]
        )
        assert args.benchmarks == ["db", "mtrt"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["table4", "--benchmarks", "spec2017"]
            )

    def test_run_command_flags(self):
        args = build_parser().parse_args(
            ["run", "db", "--scheme", "bbv", "--trace", "t.json",
             "--metrics", "--stats-json", "s.json"]
        )
        assert args.exhibit == "run"
        assert args.bench == "db"
        assert args.scheme == "bbv"
        assert args.trace == "t.json"
        assert args.metrics is True
        assert args.stats_json == "s.json"

    def test_config_overrides(self):
        args = build_parser().parse_args(
            ["table4", "--instructions", "123", "--hot-threshold", "7",
             "--seed", "9"]
        )
        config = make_config(args)
        assert config.max_instructions == 123
        assert config.hot_threshold == 7
        assert config.seed == 9


class TestMain:
    def test_static_exhibits(self, capsys):
        assert main(["table2"]) == 0
        assert "L1 D-cache" in capsys.readouterr().out
        assert main(["table3"]) == 0

    def test_quick_run(self, capsys):
        code = main(
            ["quick", "--benchmarks", "db", "--instructions", "300000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "L1D energy reduction" in out
        assert "slowdown" in out

    def test_suite_exhibit_small(self, capsys):
        code = main(
            ["figure4", "--benchmarks", "db",
             "--instructions", "300000"]
        )
        assert code == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_run_without_benchmark_errors(self, capsys):
        assert main(["run"]) == 2
        assert "needs a benchmark" in capsys.readouterr().err

    def test_run_with_trace_and_stats(self, capsys, tmp_path):
        trace_path = tmp_path / "out.json"
        stats_path = tmp_path / "stats.json"
        code = main(
            ["run", "db", "--scheme", "hotspot",
             "--instructions", "300000",
             "--trace", str(trace_path), "--metrics",
             "--stats-json", str(stats_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "db/hotspot" in out
        assert "trace written" in out
        assert "config_pinned" in out  # --metrics summary

        trace = json.loads(trace_path.read_text())
        names = {
            e["name"]
            for e in trace["traceEvents"]
            if e["ph"] != "M"
        }
        assert {"hotspot_detected", "config_tried", "config_pinned"} <= names

        stats = json.loads(stats_path.read_text())
        assert stats["simulations"] == 1
        assert stats["elapsed_seconds"] >= 0


class TestNonTwoWayL1D:
    def test_fast_kernel_refusal_is_one_error_line(
        self, capsys, monkeypatch
    ):
        def four_way_l1d(args):
            config = make_config(args)
            machine = config.machine
            config.machine = replace(
                machine, l1d=replace(machine.l1d, associativity=4)
            )
            return config

        monkeypatch.setattr(cli, "make_config", four_way_l1d)
        # A configuration error: the batch fails once, before any cell
        # runs, so no attempt is made and none retried.
        assert main(
            ["quick", "--no-store", "--instructions", "20000"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "L1D" in line and "associativity 4" in line
        assert "attempt" not in line and "retr" not in line


class _Captured(Exception):
    """Stops ``quick`` once its cells' configuration is known."""


class TestBudgets:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["all", "--instructions", "0"],
             "--instructions must be at least 1, got 0"),
            (["all", "--instructions", "-5"],
             "--instructions must be at least 1, got -5"),
            (["quick", "--hot-threshold", "0"],
             "--hot-threshold must be at least 1, got 0"),
            (["run", "db", "--instructions", "0"],
             "--instructions must be at least 1, got 0"),
        ],
    )
    def test_out_of_range_budget_exits_before_a_cell(
        self, argv, message, capsys, monkeypatch
    ):
        def no_batch(self, cells):
            raise AssertionError("a batch started")

        monkeypatch.setattr(Engine, "run", no_batch)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-store"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("field", ["max_instructions", "hot_threshold"])
    def test_library_calls_name_the_field(self, field):
        message = f"{field} must be at least 1, got 0"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: 0})
        # A field assigned after construction is refused before the
        # batch starts.
        config = ExperimentConfig()
        setattr(config, field, 0)
        engine = Engine(use_cache=False, memory_cache={})
        with pytest.raises(ValueError, match=message):
            experiment.run_suite(["db"], config, engine=engine)
        assert engine.stats.simulations == 0

    @pytest.mark.parametrize(
        "argv, budget",
        [
            ([], QUICK_INSTRUCTIONS),
            (["--instructions", "6000000"], 6_000_000),
            (["--instructions", "300"], 300),
        ],
    )
    def test_quick_caps_only_the_default_budget(
        self, argv, budget, monkeypatch
    ):
        seen = []

        def capture(benchmark, config, engine):
            seen.append(config.max_instructions)
            raise _Captured

        monkeypatch.setattr(experiment, "compare_schemes", capture)
        with pytest.raises(_Captured):
            main(["quick", "--no-store", *argv])
        assert seen == [budget]


class TestStoreGC:
    @staticmethod
    def _load_tool():
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "tools"
            / "store_gc.py"
        )
        spec = importlib.util.spec_from_file_location("store_gc", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_list_renders_aligned_table(self, capsys, tmp_path):
        from repro.sim.experiment import (
            get_default_store,
            set_default_store,
        )

        store_dir = tmp_path / "store"
        previous = get_default_store()
        try:
            # An instruction count no other test uses, so the cells miss
            # the process-wide memory cache and actually reach the store.
            code = main(
                ["quick", "--benchmarks", "db",
                 "--instructions", "310000",
                 "--store-dir", str(store_dir)]
            )
            assert code == 0
        finally:
            set_default_store(previous)
        capsys.readouterr()

        store_gc = self._load_tool()
        assert store_gc.main(["--store-dir", str(store_dir), "--list"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header, rule = lines[0], lines[1]
        assert header.split() == [
            "file", "benchmark", "scheme", "fingerprint", "schema",
            "bytes", "shard", "shard-bytes", "age",
        ]
        assert set(rule) <= {"-", " "}
        body = lines[2:-1]
        assert len(body) == 3  # baseline/bbv/hotspot cells
        schema_col = header.index("schema")
        bytes_col = header.index("bytes")
        age_col = header.index("age")
        for line in body:
            assert line[schema_col:].startswith("v")
            assert int(line[bytes_col:].split()[0]) > 0
            assert line[age_col:].rstrip().endswith("d")
        assert "3 entries" in lines[-1]

    def test_list_flags_quarantined_and_tmp_files(self, capsys, tmp_path):
        from repro.sim.store import ResultStore

        store_dir = tmp_path / "store"
        store_dir.mkdir()
        # A quarantined entry with its reason sidecar, plus crashed-
        # writer debris — exactly what a chaotic run leaves behind.
        (store_dir / "db__hotspot__abc.json.corrupt").write_text("{trunc")
        (store_dir / "db__hotspot__abc.json.corrupt.reason").write_text(
            "unreadable entry: JSONDecodeError\nquarantined: 1754000000\n"
        )
        (store_dir / "db__hotspot__abc.jsonK7Q.tmp").write_text("{half")

        store_gc = self._load_tool()
        assert store_gc.main(["--store-dir", str(store_dir), "--list"]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined (corrupt) file(s):" in out
        assert "db__hotspot__abc.json.corrupt: unreadable entry" in out
        assert "1 leftover .tmp file(s)" in out
        assert "db__hotspot__abc.jsonK7Q.tmp" in out

        # --all --prune wipes them (and the reason sidecar) too.
        assert store_gc.main(
            ["--store-dir", str(store_dir), "--all", "--prune"]
        ) == 0
        out = capsys.readouterr().out
        assert "+2 corrupt/tmp file(s)" in out
        assert list(store_dir.iterdir()) == []
        assert ResultStore(store_dir).corrupt_files() == []

    def test_max_bytes_prunes_lru_by_mtime(self, capsys, tmp_path):
        import json as json_mod
        import os as os_mod

        from repro.sim.store import ResultStore

        store_dir = tmp_path / "store"
        # Four 1000-byte entries with strictly increasing mtimes; a
        # 2500-byte cap must evict exactly the two oldest (LRU).
        names = []
        for n in range(4):
            fingerprint = f"{n:x}{n:x}" * 32
            shard = store_dir / fingerprint[:2]
            shard.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": 1,
                "fingerprint": fingerprint,
                "benchmark": "db",
                "scheme": "baseline",
                "created": 1_754_000_000 + n,
                "result": {},
            }
            body = json_mod.dumps(payload)
            # Trailing whitespace keeps the JSON valid while pinning the
            # file to exactly 1000 bytes.
            body += " " * (1000 - len(body))
            path = shard / f"db__baseline__{fingerprint[:24]}.json"
            path.write_text(body)
            os_mod.utime(path, (1_754_000_000 + n, 1_754_000_000 + n))
            names.append(path.name)

        store_gc = self._load_tool()
        # Dry run first: reports, deletes nothing.
        assert store_gc.main(
            ["--store-dir", str(store_dir), "--max-bytes", "2500"]
        ) == 0
        out = capsys.readouterr().out
        assert "would prune 2 of 4 entries" in out
        assert names[0] in out and names[1] in out
        assert sum(
            1 for _ in ResultStore(store_dir).entries()
        ) == 4

        # Real prune: the two oldest go, the two newest survive.
        assert store_gc.main(
            ["--store-dir", str(store_dir), "--max-bytes", "2500",
             "--prune"]
        ) == 0
        out = capsys.readouterr().out
        assert "pruning 2 of 4 entries" in out
        survivors = {
            entry.path.name for entry in ResultStore(store_dir).entries()
        }
        assert survivors == {names[2], names[3]}

        # Already under the cap: nothing selected.
        assert store_gc.main(
            ["--store-dir", str(store_dir), "--max-bytes", "2500",
             "--prune"]
        ) == 0
        out = capsys.readouterr().out
        assert "pruning 0 of 2 entries" in out
