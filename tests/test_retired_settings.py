"""Retired settings fail loudly instead of being silently ignored.

The vectorized ``turbo`` kernel and the ``decider_stream`` knob that
only it needed were removed (docs/INTERNALS.md §17), and so were the
fleet-scale execution layer's SSH backends, host health, straggler
speculation and their fault sites (§16).  A caller still asking for
them gets an error before a campaign starts, not a run on a different
configuration.  So do LPT scheduling's ``schedule`` and the runtime
cost model's ``cost_model``/``cost_model_dir`` (§18), and manifest
replay's ``--resume``/``resume=``: the result store is written through
per cell, so a plain re-run continues a killed campaign (§16).  And so
do the backend spec language and its settings — ``--backend``,
``--chunk-size``, ``--max-pool-rebuilds``, ``Engine(pool="local:N")``
and ``make_engine(jobs=)``: ``jobs`` is the one execution-width
setting (§14).  And so does in-process recovery — ``max_retries``,
``max_pool_rebuilds``, ``chunk_size`` and the ``partial`` failure
policy: each cell runs once, and a re-run is the recovery (§11).
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.faults import FaultPlan
from repro.sim.config import ExperimentConfig
from repro.sim.engine import Engine
from repro.sim.experiment import make_engine
from repro.sim.options import ExecutionOptions


def test_turbo_kernel_names_the_retirement_note():
    with pytest.raises(ValueError, match=r"retired.*INTERNALS\.md §17"):
        ExperimentConfig(sim_kernel="turbo")


def test_cli_rejects_turbo_kernel(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["quick", "--kernel", "turbo"])
    assert "invalid choice: 'turbo'" in capsys.readouterr().err


def test_cli_kernel_choices_are_the_two_kernels():
    parser = build_parser()
    for kernel in ("fast", "reference"):
        assert parser.parse_args(["quick", "--kernel", kernel]).kernel == kernel


@pytest.mark.parametrize("stream", ["shared", "split"])
def test_decider_stream_is_not_a_keyword(stream):
    with pytest.raises(TypeError, match="decider_stream"):
        ExperimentConfig(decider_stream=stream)


@pytest.mark.parametrize(
    "flag",
    [
        ["--backend", "local:2"],
        ["--chunk-size", "2"],
        ["--max-pool-rebuilds", "5"],
    ],
)
def test_cli_rejects_execution_width_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["all", *flag])
    assert f"unrecognized arguments: {' '.join(flag)}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("spec", ["local:2", "serial", "ssh:hosts.txt"])
def test_engine_pool_spec_is_a_type_error_naming_jobs(spec):
    with pytest.raises(TypeError, match=r"jobs=N.*INTERNALS\.md §14"):
        Engine(pool=spec)


@pytest.mark.parametrize(
    "keyword, value",
    [("backend", "local:2"), ("chunk_size", 2), ("max_pool_rebuilds", 5)],
)
def test_backend_settings_are_not_options_fields(keyword, value):
    with pytest.raises(TypeError, match=keyword):
        ExecutionOptions(**{keyword: value})


def test_jobs_is_not_a_make_engine_keyword():
    with pytest.raises(TypeError, match="jobs"):
        make_engine(jobs=2)


def test_cli_rejects_straggler_factor(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["all", "--straggler-factor", "2.0"])
    assert "--straggler-factor" in capsys.readouterr().err


def test_straggler_factor_is_not_a_keyword():
    with pytest.raises(TypeError, match="straggler_factor"):
        Engine(straggler_factor=2.0)
    with pytest.raises(TypeError, match="straggler_factor"):
        ExecutionOptions(straggler_factor=2.0)


@pytest.mark.parametrize(
    "site", ["host_down", "straggler_delay", "straggler_delay_s"]
)
def test_retired_fault_sites_are_rejected(site):
    with pytest.raises(ValueError, match=f"unknown fault-plan field '{site}'"):
        FaultPlan.from_spec(f"seed=1,{site}=0.1")


@pytest.mark.parametrize(
    "flag", [["--schedule", "lpt"], ["--cost-model-dir", "models"]]
)
def test_cli_rejects_scheduler_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["all", *flag])
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "keyword", ["schedule", "cost_model", "cost_model_dir"]
)
def test_scheduler_settings_are_not_engine_keywords(keyword):
    with pytest.raises(TypeError, match=keyword):
        Engine(**{keyword: None})


@pytest.mark.parametrize("keyword", ["schedule", "cost_model_dir"])
def test_scheduler_settings_are_not_options_fields(keyword):
    with pytest.raises(TypeError, match=keyword):
        ExecutionOptions(**{keyword: None})


def test_remote_capture_events_is_not_a_keyword():
    # The worker-side capture cap is the DEFAULT_CELL_EVENT_CAP constant.
    with pytest.raises(TypeError, match="remote_capture_events"):
        Engine(remote_capture_events=4)


def test_cli_rejects_resume(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["all", "--resume", "runs/run.jsonl"])
    assert "--resume" in capsys.readouterr().err


def test_resume_is_not_an_engine_keyword():
    with pytest.raises(TypeError, match="resume"):
        Engine(resume="runs/run.jsonl")


def test_resume_is_not_a_run_keyword():
    with Engine(use_cache=False) as engine:
        with pytest.raises(TypeError, match="resume"):
            engine.run([], resume="runs/run.jsonl")


def test_resume_is_not_a_make_engine_keyword():
    with pytest.raises(TypeError, match="resume"):
        make_engine(resume="runs/run.jsonl")


@pytest.mark.parametrize(
    "keyword", ["max_retries", "max_pool_rebuilds", "chunk_size"]
)
def test_recovery_settings_are_not_engine_keywords(keyword):
    with pytest.raises(TypeError, match=keyword):
        Engine(**{keyword: 1})


@pytest.mark.parametrize("build", [Engine, make_engine])
def test_partial_policy_names_the_retirement_note(build):
    with pytest.raises(ValueError, match=r"partial.*INTERNALS\.md §11"):
        build(failure_policy="partial")


def test_cli_rejects_partial_policy(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["all", "--on-error", "partial"])
    assert "invalid choice: 'partial'" in capsys.readouterr().err
