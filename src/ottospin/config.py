"""Run configuration: strict sectioned key-value parsing with line-numbered
diagnostics, canonical serialization, and the preset reservoir temperatures.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, blank lines, and full-line ``#`` comments.  Unknown sections or keys,
unparsable values, and out-of-range values are all reported with the line
they came from, which is the reason this is a hand-rolled parser instead of
an off-the-shelf format reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

from .cycle import CycleConfig
from .propagator import DEFAULT_N_STEPS
from .spin import DriveProtocol, Phase, ThermalParams

#: Preset hot-reservoir temperatures (peV) selectable by option letter.
HOT_PRESETS_PEV = {"A": 21.5, "B": 40.5}

#: Default drive-duration grid (us) for sweeps.
DEFAULT_TAU_GRID_US = (
    100.0, 200.0, 235.0, 260.0, 300.0, 320.0, 420.0, 500.0, 600.0, 700.0,
)


class ConfigError(Exception):
    """Configuration problem, carrying the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command-line run needs, with defaults matching the
    reference engine (2.0 -> 3.6 kHz ramp, 6.6 peV cold reservoir, hot
    option B, 7 ms thermalization)."""

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

    def resolved_kt_hot_pev(self) -> float:
        if self.hot_option in HOT_PRESETS_PEV:
            return HOT_PRESETS_PEV[self.hot_option]
        assert self.kt_hot_pev is not None  # guaranteed by validation
        return self.kt_hot_pev


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


# (section, key) -> (config field, parser)
_SCHEMA: dict[tuple[str, str], tuple[str, Callable]] = {
    ("drive", "nu_initial_khz"): ("nu_initial_khz", float),
    ("drive", "nu_final_khz"): ("nu_final_khz", float),
    ("drive", "n_steps"): ("n_steps", int),
    ("thermal", "hot_option"): ("hot_option", str),
    ("thermal", "kt_cold_pev"): ("kt_cold_pev", float),
    ("thermal", "kt_hot_pev"): ("kt_hot_pev", float),
    ("cycle", "tau_us"): ("tau_us", float),
    ("cycle", "tau_list_us"): ("tau_list_us", _parse_float_list),
    ("cycle", "t_thermalization_us"): ("t_thermalization_us", float),
    ("cycle", "t_cooling_us"): ("t_cooling_us", float),
    ("monte_carlo", "samples"): ("mc_samples", int),
    ("monte_carlo", "noise_width"): ("mc_noise_width", float),
    ("monte_carlo", "seed"): ("seed", int),
    ("output", "format"): ("output_format", str),
    ("output", "path"): ("output_path", str),
    ("output", "lorentzian_fwhm_pev"): ("lorentzian_fwhm_pev", float),
    ("output", "curve_min_pev"): ("curve_min_pev", float),
    ("output", "curve_max_pev"): ("curve_max_pev", float),
    ("output", "curve_points"): ("curve_points", int),
    ("process", "noise_mix"): ("process_noise_mix", float),
}

_SECTIONS = sorted({section for section, _ in _SCHEMA})


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


# field -> (predicate, requirement description); line numbers get attached
# wherever the value came from.
_RANGES: dict[str, tuple[Callable, str]] = {
    "nu_initial_khz": (_finite_positive, "must be finite and positive"),
    "nu_final_khz": (_finite_positive, "must be finite and positive"),
    "n_steps": (lambda v: v >= 1, "must be at least 1"),
    "hot_option": (
        lambda v: v in (*HOT_PRESETS_PEV, "custom"),
        "must be A, B, or custom",
    ),
    "kt_cold_pev": (lambda v: v > 0, "must be positive"),
    "kt_hot_pev": (lambda v: v is None or v > 0, "must be positive"),
    "tau_us": (_finite_positive, "must be finite and positive"),
    "tau_list_us": (
        lambda v: len(v) > 0 and all(_finite_positive(t) for t in v),
        "must be nonempty, and each entry must be finite and positive",
    ),
    "t_thermalization_us": (lambda v: v > 0, "must be positive"),
    "t_cooling_us": (lambda v: v >= 0, "must be nonnegative"),
    "mc_samples": (lambda v: v >= 1, "must be at least 1"),
    "mc_noise_width": (
        lambda v: math.isfinite(v) and v >= 0, "must be finite and nonnegative"
    ),
    "seed": (lambda v: v >= 0, "must be nonnegative"),
    "output_format": (lambda v: v in ("csv", "json"), "must be csv or json"),
    "lorentzian_fwhm_pev": (lambda v: v >= 0, "must be nonnegative (0 disables)"),
    "curve_points": (lambda v: v >= 2, "must be at least 2"),
    "process_noise_mix": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
}


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
        raw_value = raw_value.strip()
        try:
            field_name, parser = _SCHEMA[(section, key)]
        except KeyError:
            raise ConfigError(
                f"unknown key {key!r} in section [{section}]", lineno
            ) from None
        if field_name in values:
            raise ConfigError(
                f"duplicate key {key!r} (already set on line {value_lines[field_name]})",
                lineno,
            )
        if field_name == "output_path":
            values[field_name] = raw_value or None
        else:
            try:
                values[field_name] = parser(raw_value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
        value_lines[field_name] = lineno

    for field_name, value in values.items():
        predicate, requirement = _RANGES.get(field_name, (lambda v: True, ""))
        if not predicate(value):
            raise ConfigError(
                f"{field_name} {requirement}, got {value}", value_lines[field_name]
            )
    if "curve_min_pev" in values or "curve_max_pev" in values:
        cfg_min = values.get("curve_min_pev", RunConfig.curve_min_pev)
        cfg_max = values.get("curve_max_pev", RunConfig.curve_max_pev)
        if cfg_min >= cfg_max:  # type: ignore[operator]
            line = value_lines.get("curve_max_pev", value_lines.get("curve_min_pev"))
            raise ConfigError("curve_min_pev must be below curve_max_pev", line)

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    if cfg.hot_option == "custom" and cfg.kt_hot_pev is None:
        raise ConfigError("hot_option custom requires kt_hot_pev")
    if cfg.hot_option != "custom" and cfg.kt_hot_pev is not None:
        raise ConfigError(
            "kt_hot_pev is only honored with hot_option = custom",
            value_lines.get("kt_hot_pev"),
        )
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text for a configuration; parse(serialize(c)) == c."""
    by_field = {field_name: (sec, key) for (sec, key), (field_name, _) in _SCHEMA.items()}
    lines: list[str] = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for field in fields(cfg):
            mapped = by_field.get(field.name)
            if mapped is None or mapped[0] != section:
                continue
            value = getattr(cfg, field.name)
            if field.name == "kt_hot_pev" and value is None:
                continue  # only meaningful for hot_option = custom
            lines.append(f"{mapped[1]} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def _format_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_cycle_config(cfg: RunConfig, tau_us: float | None = None) -> CycleConfig:
    """Build the simulation configuration for one drive duration."""
    protocol = DriveProtocol(
        nu_initial_khz=cfg.nu_initial_khz,
        nu_final_khz=cfg.nu_final_khz,
        tau_us=cfg.tau_us if tau_us is None else tau_us,
        phase=Phase.EXPANSION,
    )
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
    """Replace fields (CLI flags beat config-file values), revalidating the
    hot-option pairing."""
    filtered = {k: v for k, v in overrides.items() if v is not None}
    if not filtered:
        return cfg
    updated = replace(cfg, **filtered)  # type: ignore[arg-type]
    for field_name, value in filtered.items():
        predicate, requirement = _RANGES.get(field_name, (lambda v: True, ""))
        if not predicate(value):
            raise ConfigError(f"{field_name} {requirement}, got {value}")
    if updated.hot_option != "custom" and updated.kt_hot_pev is not None:
        # a preset override displaces any custom temperature from the file
        updated = replace(updated, kt_hot_pev=None)
    if updated.hot_option == "custom" and updated.kt_hot_pev is None:
        raise ConfigError("hot_option custom requires kt_hot_pev")
    return updated
