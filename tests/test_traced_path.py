"""The traced benchmark path: every layer boundary that
``perfbench/tracing.py`` wraps exists, and the commands write their output
only through ``sys.stdout``, which a traced run redirects."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from ottospin.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_in_its_module():
    boundaries = _tracing_module().BOUNDARIES
    assert len(boundaries) > 20
    missing = [
        f"{module}.{name}"
        for module, name in boundaries
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mc-samples", "20"],
        ["work-dist", "--tau", "300"],
        ["heat-dist", "--tau", "300", "--format", "json"],
        ["qpt", "--tau", "300"],
    ],
)
def test_commands_write_nothing_past_a_redirected_stdout(capfd, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(argv)
    captured = capfd.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out == ""
    assert buffer.getvalue().count("\n") > 2
