"""The traced benchmark path: every layer boundary that
``perfbench/tracing.py`` wraps exists, the Monte Carlo calls its math
through the wrapped boundaries, and the commands write their output only
through ``sys.stdout``, which a traced run redirects."""

import contextlib
import importlib
import io

import pytest

import ottospin as o
from conftest import _tracing_module
from ottospin.cli import main


def test_every_traced_boundary_resolves_in_its_module():
    boundaries = _tracing_module().BOUNDARIES
    assert len(boundaries) > 20
    missing = [
        f"{module}.{name}"
        for module, name in boundaries
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_monte_carlo_math_runs_through_the_traced_boundaries():
    # cycle.mc.math_pct sums these spans; a call around them would read 0
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    cfg = o.CycleConfig(o.DriveProtocol(2.0, 3.6, 300.0), o.ThermalParams(6.6, 40.5))
    with tracer.request_scope(0):
        o.cycle_with_uncertainty(cfg, 0.01, 50, 1)
    assert tracer.missing == []
    under_mc = [span[0] for span in tracer.spans
                if span[3] is not None and tracer.spans[span[3]][0] == "cycle_with_uncertainty"]
    # one tau: four repairs (two equilibria, two drive outputs), two
    # relative entropies and two heats, every one of them seen
    assert {name: under_mc.count(name) for name in tracing.MC_MATH} == {
        "_repair_batch": 4, "_relative_entropy_batch": 2, "_trace_pairing": 2}
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    metrics = tracing.layer_metrics(tracer.spans, 1, wall, set(tracer.missing))
    assert metrics["cycle.mc.math_pct"] > 0.0


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
