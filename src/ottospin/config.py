"""Run configuration: strict sectioned key-value parsing with line-numbered
diagnostics, and the preset reservoir temperatures.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, blank lines, and full-line ``#`` comments.  Unknown sections or keys,
unparsable values, and out-of-range values are all reported with the line
they came from, which is the reason this is a hand-rolled parser instead of
an off-the-shelf format reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .cycle import CycleConfig
from .propagator import DEFAULT_N_STEPS
from .spin import DriveProtocol, ThermalParams

#: Preset hot-reservoir temperatures (peV) selectable by option letter.
HOT_PRESETS_PEV = {"A": 21.5, "B": 40.5}

#: Default drive-duration grid (us) for sweeps.
DEFAULT_TAU_GRID_US = (
    100.0, 200.0, 235.0, 260.0, 300.0, 320.0, 420.0, 500.0, 600.0, 700.0,
)


class ConfigError(Exception):
    """Configuration problem, carrying the offending line when known."""

    #: the fields of a :class:`RunConfig` check's error, whose line it names
    fields: tuple[str, ...] = ()

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command-line run needs, with defaults matching the
    reference engine (2.0 -> 3.6 kHz ramp, 6.6 peV cold reservoir, hot
    option B, 7 ms thermalization).

    Every instance is checked when it is built, from a file, by
    :func:`apply_overrides` or directly: the first value out of range in
    field order, else stroke times whose sum overflows, else an unordered
    curve window, else a hot option that does not pair with ``kt_hot_pev``,
    raises :class:`ConfigError`."""

    nu_initial_khz: float = 2.0
    nu_final_khz: float = 3.6
    n_steps: int = DEFAULT_N_STEPS
    hot_option: str = "B"
    kt_cold_pev: float = 6.6
    kt_hot_pev: float | None = None
    tau_us: float = 100.0
    tau_list_us: tuple[float, ...] = DEFAULT_TAU_GRID_US
    t_thermalization_us: float = 7000.0
    t_cooling_us: float = 0.0
    mc_samples: int = 1000
    mc_noise_width: float = 0.01
    seed: int = 0
    output_format: str = "csv"
    output_path: str | None = None
    lorentzian_fwhm_pev: float = 1.2
    curve_min_pev: float = -30.0
    curve_max_pev: float = 30.0
    curve_points: int = 1201
    process_noise_mix: float = 0.0

    def __post_init__(self) -> None:
        for field_name, (_, _, _, predicate, requirement) in _KEYS.items():
            value = getattr(self, field_name)
            if not predicate(value):
                raise _fault(f"{field_name} {requirement}, got {value}", field_name)
        if self.t_thermalization_us + self.t_cooling_us == math.inf:
            raise _fault("t_thermalization_us + t_cooling_us must be finite, got "
                         f"{self.t_thermalization_us} + {self.t_cooling_us}",
                         "t_thermalization_us", "t_cooling_us")
        if self.curve_min_pev >= self.curve_max_pev:
            raise _fault("curve_min_pev must be below curve_max_pev",
                         "curve_max_pev", "curve_min_pev")
        if self.hot_option == "custom" and self.kt_hot_pev is None:
            raise _fault("hot_option custom requires kt_hot_pev")
        if self.hot_option != "custom" and self.kt_hot_pev is not None:
            raise _fault("kt_hot_pev is only honored with hot_option = custom", "kt_hot_pev")

    def resolved_kt_hot_pev(self) -> float:
        if self.hot_option in HOT_PRESETS_PEV:
            return HOT_PRESETS_PEV[self.hot_option]
        assert self.kt_hot_pev is not None  # guaranteed by __post_init__
        return self.kt_hot_pev


def _fault(message: str, *fields: str) -> ConfigError:
    error = ConfigError(message)
    error.fields = fields
    return error


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


_FINITE_POSITIVE = "must be finite and positive"

# RunConfig field -> (section, key, text parser, range predicate, requirement),
# in field order; line numbers get attached wherever the value came from.
_KEYS: dict[str, tuple[str, str, Callable, Callable, str]] = {
    "nu_initial_khz": ("drive", "nu_initial_khz", float, _finite_positive, _FINITE_POSITIVE),
    "nu_final_khz": ("drive", "nu_final_khz", float, _finite_positive, _FINITE_POSITIVE),
    "n_steps": ("drive", "n_steps", int, lambda v: v >= 1, "must be at least 1"),
    "hot_option": (
        "thermal", "hot_option", str,
        lambda v: v in (*HOT_PRESETS_PEV, "custom"), "must be A, B, or custom",
    ),
    "kt_cold_pev": ("thermal", "kt_cold_pev", float, _finite_positive, _FINITE_POSITIVE),
    "kt_hot_pev": (
        "thermal", "kt_hot_pev", float, lambda v: v is None or v > 0, "must be positive"
    ),
    "tau_us": ("cycle", "tau_us", float, _finite_positive, _FINITE_POSITIVE),
    "tau_list_us": (
        "cycle", "tau_list_us", _parse_float_list,
        lambda v: len(v) > 0 and all(_finite_positive(t) for t in v),
        "must be nonempty, and each entry must be finite and positive",
    ),
    "t_thermalization_us": (
        "cycle", "t_thermalization_us", float, _finite_positive, _FINITE_POSITIVE
    ),
    "t_cooling_us": (
        "cycle", "t_cooling_us", float,
        lambda v: math.isfinite(v) and v >= 0, "must be finite and nonnegative",
    ),
    "mc_samples": ("monte_carlo", "samples", int, lambda v: v >= 1, "must be at least 1"),
    "mc_noise_width": (
        "monte_carlo", "noise_width", float,
        lambda v: math.isfinite(v) and v >= 0, "must be finite and nonnegative",
    ),
    "seed": ("monte_carlo", "seed", int, lambda v: v >= 0, "must be nonnegative"),
    "output_format": (
        "output", "format", str, lambda v: v in ("csv", "json"), "must be csv or json"
    ),
    "output_path": ("output", "path", lambda raw: raw or None, lambda v: True, ""),
    "lorentzian_fwhm_pev": (
        "output", "lorentzian_fwhm_pev", float,
        lambda v: math.isfinite(v) and v >= 0,
        "must be finite and nonnegative (0 disables)",
    ),
    "curve_min_pev": ("output", "curve_min_pev", float, math.isfinite, "must be finite"),
    "curve_max_pev": ("output", "curve_max_pev", float, math.isfinite, "must be finite"),
    "curve_points": ("output", "curve_points", int, lambda v: v >= 2, "must be at least 2"),
    "process_noise_mix": (
        "process", "noise_mix", float, lambda v: 0 <= v <= 1, "must lie in [0, 1]"
    ),
}

_FIELDS = {(section, key): name for name, (section, key, *_) in _KEYS.items()}
_SECTIONS = sorted({section for section, _ in _FIELDS})


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a :class:`RunConfig`.

    Absent keys keep their defaults; an empty document is the full default
    configuration.  Every diagnostic names the offending line.
    """
    values: dict[str, object] = {}
    value_lines: dict[str, int] = {}
    section: str | None = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section {section!r} (expected one of {_SECTIONS})",
                    lineno,
                )
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        try:
            field_name = _FIELDS[(section, key)]
        except KeyError:
            raise ConfigError(
                f"unknown key {key!r} in section [{section}]", lineno
            ) from None
        if field_name in values:
            raise ConfigError(
                f"duplicate key {key!r} (already set on line {value_lines[field_name]})",
                lineno,
            )
        try:
            values[field_name] = _KEYS[field_name][2](raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
        value_lines[field_name] = lineno
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        # name the line of the first of the error's fields the text set
        line = next((value_lines[f] for f in exc.fields if f in value_lines), None)
        raise ConfigError(str(exc), line) from None


def to_cycle_config(cfg: RunConfig, tau_us: float | None = None) -> CycleConfig:
    """Build the simulation configuration for one drive duration."""
    tau_us = cfg.tau_us if tau_us is None else tau_us
    protocol = DriveProtocol(cfg.nu_initial_khz, cfg.nu_final_khz, tau_us)
    thermal = ThermalParams(
        kt_cold_pev=cfg.kt_cold_pev, kt_hot_pev=cfg.resolved_kt_hot_pev()
    )
    return CycleConfig(
        protocol=protocol,
        thermal=thermal,
        n_steps=cfg.n_steps,
        t_thermalization_us=cfg.t_thermalization_us,
        t_cooling_us=cfg.t_cooling_us,
    )


def apply_overrides(cfg: RunConfig, **overrides: object) -> RunConfig:
    """Replace fields (CLI flags beat config-file values), under the checks
    a config file meets; a preset ``hot_option`` displaces any custom
    temperature that is not itself overridden."""
    filtered = {k: v for k, v in overrides.items() if v is not None}
    if not filtered:
        return cfg
    if filtered.get("hot_option", "custom") != "custom":
        filtered.setdefault("kt_hot_pev", None)
    return replace(cfg, **filtered)
