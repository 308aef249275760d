"""Retired settings fail loudly instead of being silently ignored.

The vectorized ``turbo`` kernel and the ``decider_stream`` knob that
only it needed were removed (docs/INTERNALS.md §17).  A caller still
asking for them gets an error naming the retirement, not a run on a
different kernel.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.sim.config import ExperimentConfig


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
