"""Command-line front end: deterministic CSV/JSON emission of sweep tables,
work/heat atom distributions, and process-matrix diagnostics.

Exit codes: 0 success, 1 configuration problem (bad flags, bad config file,
out-of-range values, a propagator that does not converge or breaks the
transition-probability symmetry, a floating-point overflow, division by zero
or invalid operation, a run too large to allocate), 2 I/O problem
(unreadable config, unwritable output).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config,
    to_cycle_config,
)
from .cycle import MONTE_CARLO_FIELDS, CycleReport, endpoint_hamiltonians, sweep_with_uncertainty
from .process import (
    choi_from_unitary,
    depolarizing_process,
    mix_processes,
    process_trace_distance,
    unitality_defect,
)
from .propagator import evolve_unitary, transition_probability
from .tpm import (
    engine_heat_distribution,
    engine_work_distribution,
    lorentzian_broaden,
)

_REPORT_COLUMNS = tuple(f.name for f in fields(CycleReport))
_STDDEV_COLUMNS = tuple(f"{name}_stddev" for name in MONTE_CARLO_FIELDS)

_SWEEP_COLUMNS_DOC = (
    "CSV columns: "
    + ", ".join(_REPORT_COLUMNS)
    + ", plus Monte Carlo spread columns "
    + ", ".join(_STDDEV_COLUMNS)
    + ". Energies are peV, times us, power peV/ms."
)
_DIST_COLUMNS_DOC = (
    "CSV columns: energy_pev, probability (one row per atom). With --out and "
    "a positive lorentzian_fwhm_pev, a broadened curve with columns "
    "energy_pev, density is written next to it as <stem>_curve.csv."
)
_QPT_COLUMNS_DOC = (
    "CSV columns: row, col, real, imag (16 rows of the 4x4 process matrix "
    "over the basis i*I, sigma_x, sigma_y, sigma_z). With --out, a summary "
    "with columns tau_us, noise_mix, unitality_defect, "
    "trace_distance_to_ideal is written as <stem>_summary.csv; without "
    "--out both tables go to stdout."
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; those are config errors here."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# RunConfig field -> (flag, argparse options) of each override flag, in the
# order --help lists them; each flag's dest is its field.  A flag that some
# _COMMANDS entry lists comes only with the commands that list it, every
# other flag with every command.
_FLAGS = {
    "output_path": ("--out", {"metavar": "PATH", "help": "output file (default stdout)"}),
    "output_format": ("--format", {"choices": ("csv", "json"), "help": "output format"}),
    "hot_option": (
        "--hot", {"choices": ("A", "B"), "help": "hot-reservoir preset (21.5 / 40.5 peV)"}
    ),
    "seed": ("--seed", {"type": int, "help": "Monte Carlo seed"}),
    "tau_us": ("--tau", {"type": float, "metavar": "US", "help": "drive duration"}),
    "mc_samples": (
        "--mc-samples", {"type": int, "metavar": "N", "help": "Monte Carlo sample count"}
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ottospin",
        description=(
            "Deterministic simulator for a finite-time two-level Otto engine: "
            "drive propagators, two-point-measurement statistics, cycle "
            "figures of merit, and process diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    listed = {flag for *_, extra, _ in _COMMANDS.values() for flag in extra}
    for name, (help_text, description, epilog, extra, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, description=description, epilog=epilog)
        command.add_argument("--config", metavar="PATH", help="configuration file")
        for field_name, (flag, options) in _FLAGS.items():
            if flag in extra or flag not in listed:
                command.add_argument(flag, dest=field_name, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        cfg = _load_run_config(args)
        # an overflow, a division by zero or an invalid operation is an error
        # line, not a warning before one or a non-finite report
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _COMMANDS[args.command][-1](cfg)
    except FloatingPointError as exc:
        stage = _floating_point_stage(exc)
        drive = f" ({_drive_keys(cfg, args.command)})" if stage == "propagator" else ""
        print(f"error: {stage + ': ' if stage else ''}{exc}{drive}", file=sys.stderr)
        return 1
    # RuntimeError covers ConvergenceError and the transition-symmetry check
    except (ConfigError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # an accepted sample count or curve size whose arrays cannot be allocated
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


#: The stage a floating-point error line names, by the package module that
#: runs it; ``spin`` and ``config`` serve several stages and name none.
_STAGES = {
    "ottospin.propagator": "propagator",
    "ottospin.cycle": "cycle report",
    "ottospin.tpm": "TPM",
    "ottospin.process": "process",
}


def _floating_point_stage(exc: FloatingPointError) -> str | None:
    """The stage of the innermost frame of ``exc``'s traceback whose module
    has one.  In ``cycle``, the innermost of ``_sweep_points`` (the point
    reports) and ``sweep_with_uncertainty`` (which runs the Monte Carlo
    after them) tells the two apart."""
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        frames.append((tb.tb_frame.f_globals.get("__name__"), tb.tb_frame.f_code.co_name))
        tb = tb.tb_next
    frames.reverse()
    module = next((module for module, _ in frames if module in _STAGES), None)
    if module == "ottospin.cycle" and next(
        (name for _, name in frames if name in ("_sweep_points", "sweep_with_uncertainty")),
        None,
    ) == "sweep_with_uncertainty":
        return "Monte Carlo"
    return _STAGES.get(module)


def _drive_keys(cfg: RunConfig, command: str) -> str:
    """The config keys of the drive a command propagates: the ramp and the
    duration, for ``sweep`` the longest entry of its tau list."""
    if command == "sweep":
        tau = f"max(tau_list_us) = {max(cfg.tau_list_us):g}"
    else:
        tau = f"tau_us = {cfg.tau_us:g}"
    return f"nu_initial_khz = {cfg.nu_initial_khz:g}, nu_final_khz = {cfg.nu_final_khz:g}, {tau}"


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = RunConfig()
    return apply_overrides(cfg, **{name: getattr(args, name, None) for name in _FLAGS})


# --- commands ----------------------------------------------------------------

def _emit_report_rows(cfg: RunConfig, taus: Sequence[float]) -> None:
    results = sweep_with_uncertainty(
        to_cycle_config(cfg), taus, cfg.mc_noise_width, cfg.mc_samples, cfg.seed
    )
    rows = [
        [*(getattr(report, name) for name in _REPORT_COLUMNS),
         *(spread[name].stddev for name in MONTE_CARLO_FIELDS)]
        for report, spread in results
    ]
    header = [*_REPORT_COLUMNS, *_STDDEV_COLUMNS]
    _write_text(cfg.output_path, _render_table(cfg.output_format, header, rows))


def _emit_distribution(cfg: RunConfig, kind: str) -> None:
    cycle_cfg = to_cycle_config(cfg)
    unitary = evolve_unitary(cycle_cfg.protocol, cycle_cfg.n_steps)
    swap_prob = transition_probability(unitary, *endpoint_hamiltonians(cycle_cfg.protocol))
    route = engine_work_distribution if kind == "work" else engine_heat_distribution
    dist = route(cycle_cfg.protocol, cycle_cfg.thermal, swap_prob)
    atoms = list(zip(dist.energies_pev, dist.probabilities))
    tables = [("", ["energy_pev", "probability"], atoms)]
    curve = None
    if cfg.lorentzian_fwhm_pev > 0.0:
        # np.linspace fails on an empty array at 2**63 - 1 points and above
        if cfg.curve_points >= 2**63 - 1:
            raise ValueError(f"curve_points {cfg.curve_points} is too large for an array")
        # np.linspace overflows on a wider window, which curveless commands accept
        if not math.isfinite(cfg.curve_max_pev - cfg.curve_min_pev):
            raise ValueError(f"curve_max_pev - curve_min_pev must be finite, "
                             f"got {cfg.curve_max_pev} - {cfg.curve_min_pev}")
        grid = np.linspace(cfg.curve_min_pev, cfg.curve_max_pev, cfg.curve_points)
        density = lorentzian_broaden(dist, cfg.lorentzian_fwhm_pev, grid)
        curve = {"fwhm_pev": cfg.lorentzian_fwhm_pev,
                 "energy_pev": list(grid), "density": list(density)}
        if cfg.output_path is not None:
            tables.append(("_curve", ["energy_pev", "density"], list(zip(grid, density))))
    payload = {
        "kind": kind,
        "tau_us": cfg.tau_us,
        "transition_prob": swap_prob,
        "atoms": [{"energy_pev": e, "probability": p} for e, p in atoms],
        "curve": curve,
    }
    _emit(cfg, payload, tables)


def _cmd_qpt(cfg: RunConfig) -> None:
    cycle_cfg = to_cycle_config(cfg)
    forward = evolve_unitary(cycle_cfg.protocol, cycle_cfg.n_steps)
    ideal = choi_from_unitary(forward)
    if cfg.process_noise_mix > 0.0:
        actual = mix_processes(ideal, depolarizing_process(), cfg.process_noise_mix)
    else:
        actual = ideal
    defect = unitality_defect(actual)
    delta = process_trace_distance(actual, ideal)
    matrix = actual.matrix
    payload = {
        "tau_us": cfg.tau_us,
        "noise_mix": cfg.process_noise_mix,
        "matrix_real": matrix.real.tolist(),
        "matrix_imag": matrix.imag.tolist(),
        "unitality_defect": defect,
        "trace_distance_to_ideal": delta,
    }
    entries = [[row, col, matrix[row, col].real, matrix[row, col].imag]
               for row in range(4) for col in range(4)]
    _emit(cfg, payload, [
        ("", ["row", "col", "real", "imag"], entries),
        ("_summary", ["tau_us", "noise_mix", "unitality_defect", "trace_distance_to_ideal"],
         [[cfg.tau_us, cfg.process_noise_mix, defect, delta]]),
    ])


def _emit(cfg: RunConfig, payload: dict, tables: list[tuple[str, list[str], list]]) -> None:
    """Write ``payload`` as JSON, or else the CSV tables ``(suffix, header,
    rows)``.  With ``--out``, the first table goes to that path and each
    other one next to it, as ``<stem><suffix><ext>`` (``.csv`` if the path
    has no extension); without it, all go to stdout, a blank line apart."""
    if cfg.output_format == "json":
        _write_text(cfg.output_path, _render_json(payload))
        return
    texts = [_render_table("csv", header, rows) for _, header, rows in tables]
    if cfg.output_path is None:
        _write_text(None, "\n".join(texts))
        return
    _write_text(cfg.output_path, texts[0])
    base = Path(cfg.output_path)
    for (suffix, _, _), text in zip(tables[1:], texts[1:]):
        _write_text(str(base.with_name(base.stem + suffix + (base.suffix or ".csv"))), text)


# name -> (help, description, epilog, extra flags of _FLAGS it takes, handler)
_COMMANDS = {
    "sweep": (
        "figures of merit across the drive-duration grid",
        "One row per drive duration in the configured tau grid.",
        _SWEEP_COLUMNS_DOC, ("--mc-samples",),
        lambda cfg: _emit_report_rows(cfg, cfg.tau_list_us),
    ),
    "cycle": (
        "figures of merit for a single drive duration",
        "Single-row report for one drive duration.",
        _SWEEP_COLUMNS_DOC, ("--tau", "--mc-samples"),
        lambda cfg: _emit_report_rows(cfg, (cfg.tau_us,)),
    ),
    "work-dist": (
        "work atom distribution (and broadened curve)",
        "Exact work distribution of the full cycle at one drive duration.",
        _DIST_COLUMNS_DOC, ("--tau",),
        lambda cfg: _emit_distribution(cfg, "work"),
    ),
    "heat-dist": (
        "hot-reservoir heat atom distribution",
        "Exact heat distribution at one drive duration.",
        _DIST_COLUMNS_DOC, ("--tau",),
        lambda cfg: _emit_distribution(cfg, "heat"),
    ),
    "qpt": (
        "process matrix of the expansion drive plus diagnostics",
        "Process matrix of the expansion propagator, optionally mixed "
        "with the fully depolarizing channel by [process] noise_mix.",
        _QPT_COLUMNS_DOC, ("--tau",), _cmd_qpt,
    ),
}


# --- rendering ----------------------------------------------------------------

def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _jsonable(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render_table(fmt: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    if fmt == "json":
        records = [
            {name: _jsonable(cell) for name, cell in zip(header, row)} for row in rows
        ]
        return _render_json(records)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])
    return buffer.getvalue()


def _render_json(payload: object) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _run() -> NoReturn:
    """Process entry of ``python -m ottospin.cli`` and the ``ottospin`` script.

    Before the interpreter exits, the objects that importing numpy and the
    package made go to the permanent generation, so the full collections of
    interpreter shutdown do not traverse them; the exit still flushes the
    streams, runs the ``atexit`` handlers and tears the modules down.
    ``main`` itself leaves the collector as it found it, for in-process
    callers.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    _run()
