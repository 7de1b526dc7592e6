import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ottospin as o
from ottospin import config
from ottospin.config import ConfigError
import oracles


FULL_EXAMPLE = """\
# engine sweep with a custom hot bath
[drive]
nu_initial_khz = 1.8
nu_final_khz = 4.0
n_steps = 2000

[thermal]
hot_option = custom
kt_cold_pev = 5.5
kt_hot_pev = 33.0

[cycle]
tau_us = 250
tau_list_us = 150, 250, 350
t_thermalization_us = 6000

[monte_carlo]
samples = 200
noise_width = 0.02
seed = 9

[output]
format = json
path = out.json
lorentzian_fwhm_pev = 0.9
curve_min_pev = -20
curve_max_pev = 20
curve_points = 801

[process]
noise_mix = 0.05
"""


def test_empty_text_yields_defaults():
    cfg = o.parse_config("")
    assert cfg == o.RunConfig()
    assert cfg.nu_initial_khz == 2.0
    assert cfg.nu_final_khz == 3.6
    assert cfg.hot_option == "B"
    assert cfg.tau_list_us == o.DEFAULT_TAU_GRID_US
    assert cfg.mc_samples == 1000
    assert cfg.seed == 0


def test_full_example_parses_every_section():
    cfg = o.parse_config(FULL_EXAMPLE)
    assert cfg.nu_initial_khz == 1.8
    assert cfg.n_steps == 2000
    assert cfg.hot_option == "custom"
    assert cfg.kt_hot_pev == 33.0
    assert cfg.tau_list_us == (150.0, 250.0, 350.0)
    assert cfg.mc_samples == 200
    assert cfg.output_format == "json"
    assert cfg.output_path == "out.json"
    assert cfg.curve_points == 801
    assert cfg.process_noise_mix == 0.05


def test_hot_presets_resolve_to_table_values():
    assert o.parse_config("").resolved_kt_hot_pev() == 40.5
    assert o.parse_config("[thermal]\nhot_option = A\n").resolved_kt_hot_pev() == 21.5
    assert o.parse_config(FULL_EXAMPLE).resolved_kt_hot_pev() == 33.0
    assert o.HOT_PRESETS_PEV == {"A": 21.5, "B": 40.5}


def test_round_trip_is_the_identity():
    cfg = o.parse_config(FULL_EXAMPLE)
    assert o.parse_config(oracles.serialize_config(cfg)) == cfg
    # and for the defaults too
    assert o.parse_config(oracles.serialize_config(o.RunConfig())) == o.RunConfig()


def test_unknown_key_reports_its_line_number():
    text = "[drive]\nnu_initial_khz = 2.0\nnu_middle_khz = 3.0\n"
    with pytest.raises(ConfigError, match="line 3") as exc:
        o.parse_config(text)
    assert "nu_middle_khz" in str(exc.value)


def test_unknown_section_reports_its_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        o.parse_config("[engine]\nfoo = 1\n")


def test_out_of_range_value_names_the_key_and_line():
    text = "[drive]\nnu_initial_khz = -1\n"
    with pytest.raises(ConfigError, match="line 2") as exc:
        o.parse_config(text)
    assert "nu_initial_khz" in str(exc.value)


def test_malformed_value_reports_its_line():
    with pytest.raises(ConfigError, match="line 2"):
        o.parse_config("[drive]\nnu_initial_khz = fast\n")


def test_duplicate_key_is_rejected():
    text = "[drive]\nnu_initial_khz = 2.0\nnu_initial_khz = 2.5\n"
    with pytest.raises(ConfigError, match="line 3"):
        o.parse_config(text)


def test_key_before_any_section_is_rejected():
    with pytest.raises(ConfigError, match=r"^line 1: key outside any \[section\]$"):
        o.parse_config("nu_initial_khz = 2.0\n")


def test_line_without_equals_is_rejected():
    with pytest.raises(ConfigError,
                       match="^line 2: expected 'key = value', got 'nu_initial_khz'$"):
        o.parse_config("[drive]\nnu_initial_khz\n")


@pytest.mark.parametrize(
    "text, message",
    [("[cycle]\ntau_list_us = , ,\n", "line 2: bad value for 'tau_list_us': empty list"),
     ("[drive\n", "line 1: malformed section header '[drive'")],
    ids=["list-of-blanks", "unclosed-header"],
)
def test_a_malformed_line_is_named_with_its_fault(text, message):
    with pytest.raises(ConfigError) as exc:
        o.parse_config(text)
    assert str(exc.value) == message


def test_custom_hot_option_requires_a_temperature():
    with pytest.raises(ConfigError, match="kt_hot_pev"):
        o.parse_config("[thermal]\nhot_option = custom\n")


def test_preset_hot_option_forbids_a_custom_temperature():
    with pytest.raises(ConfigError):
        o.parse_config("[thermal]\nhot_option = A\nkt_hot_pev = 30.0\n")


def test_curve_window_must_be_ordered():
    text = "[output]\ncurve_min_pev = 10\ncurve_max_pev = -10\n"
    with pytest.raises(ConfigError):
        o.parse_config(text)


def test_bad_hot_option_is_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        o.parse_config("[thermal]\nhot_option = C\n")


def test_to_cycle_config_maps_fields():
    cfg = o.parse_config(FULL_EXAMPLE)
    cyc = o.to_cycle_config(cfg)
    assert cyc.protocol.nu_initial_khz == 1.8
    assert cyc.protocol.nu_final_khz == 4.0
    assert cyc.protocol.tau_us == 250.0
    assert cyc.thermal.kt_cold_pev == 5.5
    assert cyc.thermal.kt_hot_pev == 33.0
    assert cyc.n_steps == 2000
    assert cyc.t_thermalization_us == 6000.0
    assert o.to_cycle_config(cfg, tau_us=350.0).protocol.tau_us == 350.0


def test_apply_overrides_filters_none_and_revalidates():
    cfg = o.RunConfig()
    same = o.apply_overrides(cfg, seed=None, output_format=None)
    assert same == cfg
    changed = o.apply_overrides(cfg, seed=5, output_format="json")
    assert changed.seed == 5 and changed.output_format == "json"
    with pytest.raises(ConfigError):
        o.apply_overrides(cfg, mc_samples=0)


def test_apply_overrides_preset_hot_option_displaces_custom_temperature():
    cfg = o.parse_config(FULL_EXAMPLE)  # custom, 33 peV
    back = o.apply_overrides(cfg, hot_option="A")
    assert back.hot_option == "A"
    assert back.kt_hot_pev is None
    assert back.resolved_kt_hot_pev() == 21.5
    # still round-trips cleanly
    assert o.parse_config(oracles.serialize_config(back)) == back


def test_comment_and_blank_lines_are_ignored():
    text = "\n# leading comment\n\n[drive]\n# inner comment\nnu_initial_khz = 2.2\n\n"
    assert o.parse_config(text).nu_initial_khz == 2.2


@given(
    st.floats(min_value=0.1, max_value=9.9, allow_nan=False),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["csv", "json"]),
)
def test_round_trip_identity_over_random_configs(nu1, n_steps, seed, fmt):
    cfg = o.apply_overrides(
        o.RunConfig(),
        nu_initial_khz=nu1,
        nu_final_khz=nu1 + 1.0,
        n_steps=n_steps,
        seed=seed,
        output_format=fmt,
    )
    assert o.parse_config(oracles.serialize_config(cfg)) == cfg


def test_serialized_defaults_mention_every_section():
    text = oracles.serialize_config(o.RunConfig())
    for section in ("[drive]", "[thermal]", "[cycle]", "[monte_carlo]", "[output]", "[process]"):
        assert section in text


def test_the_key_table_follows_the_run_config_fields():
    assert list(config._KEYS) == [field.name for field in dataclasses.fields(o.RunConfig)]


def test_an_override_cannot_set_a_curve_window_a_file_cannot():
    with pytest.raises(ConfigError, match="^curve_min_pev must be below curve_max_pev$"):
        o.apply_overrides(o.RunConfig(), curve_min_pev=100.0)
    with pytest.raises(ConfigError, match="^line 2: curve_min_pev must be below"):
        o.parse_config("[output]\ncurve_min_pev = 100.0\n")


def test_an_explicit_temperature_override_needs_the_custom_hot_option():
    only = "kt_hot_pev is only honored with hot_option = custom"
    with pytest.raises(ConfigError, match=f"^{only}$"):
        o.apply_overrides(o.RunConfig(), kt_hot_pev=30.0)
    # a preset override displaces the file's temperature, not an explicit one
    with pytest.raises(ConfigError, match=f"^{only}$"):
        o.apply_overrides(o.parse_config(FULL_EXAMPLE), hot_option="A", kt_hot_pev=30.0)
    kept = o.apply_overrides(o.parse_config(FULL_EXAMPLE), kt_hot_pev=30.0)
    assert (kept.hot_option, kept.kt_hot_pev) == ("custom", 30.0)


FLOAT_EDGES = ("5e-324", "1e-12", "0.0", "-1.0", "1e+300", "1.7e+308", "inf", "-inf", "nan")
INT_EDGES = ("0", "-1", str(2**63))
STRING_EDGES = ("nonsense", "")


def _edge_cases():
    for field_name, (section, key, parser, *_) in config._KEYS.items():
        if parser in (float, config._parse_float_list):
            edges = FLOAT_EDGES
        else:
            edges = INT_EDGES if parser is int else STRING_EDGES
        for text in edges:
            yield pytest.param(field_name, section, key, text, {}, id=f"{key}={text}")
            if field_name == "kt_hot_pev":
                yield pytest.param(
                    field_name, section, key, text, {"hot_option": "custom"},
                    id=f"custom:{key}={text}",
                )


def _verdict(build):
    try:
        return build(), None
    except ConfigError as exc:
        return None, re.sub(r"^line \d+: ", "", str(exc))


@pytest.mark.parametrize("field_name, section, key, text, context", list(_edge_cases()))
def test_a_file_and_an_override_give_one_verdict(field_name, section, key, text, context):
    context_lines = "".join(f"{name} = {value}\n" for name, value in context.items())
    from_file = _verdict(lambda: o.parse_config(f"[{section}]\n{context_lines}{key} = {text}\n"))
    value = config._KEYS[field_name][2](text)
    from_flags = _verdict(
        lambda: o.apply_overrides(o.RunConfig(), **context, **{field_name: value})
    )
    assert from_file == from_flags
    cfg = from_file[0]
    if cfg is not None:
        assert o.parse_config(oracles.serialize_config(cfg)) == cfg


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_steps": 0}, "n_steps must be at least 1, got 0"),
        ({"curve_min_pev": 40.0}, "curve_min_pev must be below curve_max_pev"),
        ({"hot_option": "custom"}, "hot_option custom requires kt_hot_pev"),
        ({"kt_hot_pev": 30.0}, "kt_hot_pev is only honored with hot_option = custom"),
        # no file or flag gives these: the parser reads counts as int and
        # refuses an empty list before the check
        ({"n_steps": 0.5}, "n_steps must be at least 1, got 0.5"),
        ({"mc_samples": 0.5}, "mc_samples must be at least 1, got 0.5"),
        ({"tau_list_us": ()},
         "tau_list_us must be nonempty, and each entry must be finite and positive, got ()"),
    ],
)
def test_a_run_config_is_checked_when_it_is_built(fields, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        o.RunConfig(**fields)
    # so an override cannot carry a bad config past the checks
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        o.apply_overrides(o.RunConfig(), seed=1, **fields)


def test_an_infinite_stroke_time_is_a_config_error():
    # it reached the cycle, which reported a power of 0
    message = "^line 2: t_thermalization_us must be finite and positive, got inf$"
    with pytest.raises(ConfigError, match=message):
        o.parse_config("[cycle]\nt_thermalization_us = inf\n")


def test_the_cooling_time_is_not_a_key():
    # both bath strokes are full rethermalizations, so only their sum reaches
    # an output: t_thermalization_us is the time with both baths per cycle
    with pytest.raises(ConfigError,
                       match=r"^line 2: unknown key 't_cooling_us' in section \[cycle\]$"):
        o.parse_config("[cycle]\nt_cooling_us = 100\n")


@pytest.mark.parametrize("inside, outside, message", [
    ("[drive]\nnu_initial_khz = 5e-324\n", "[drive]\nnu_initial_khz = 0\n",
     "line 2: nu_initial_khz must be finite and positive, got 0.0"),
    ("[thermal]\nhot_option = custom\nkt_hot_pev = 5e-324\n",
     "[thermal]\nhot_option = custom\nkt_hot_pev = 0\n",
     "line 3: kt_hot_pev must be positive, got 0.0"),
    ("[monte_carlo]\nsamples = 1\n", "[monte_carlo]\nsamples = 0\n",
     "line 2: mc_samples must be at least 1, got 0"),
    ("[output]\nlorentzian_fwhm_pev = 0\n", "[output]\nlorentzian_fwhm_pev = -5e-324\n",
     "line 2: lorentzian_fwhm_pev must be finite and nonnegative (0 disables), got -5e-324"),
    ("[output]\ncurve_points = 2\n", "[output]\ncurve_points = 1\n",
     "line 2: curve_points must be at least 2, got 1"),
    ("[output]\ncurve_min_pev = 5\ncurve_max_pev = 5.000000000000001\n",
     "[output]\ncurve_min_pev = 5\ncurve_max_pev = 5\n",
     "line 3: curve_min_pev must be below curve_max_pev"),
    ("[process]\nnoise_mix = 1\n", "[process]\nnoise_mix = 1.0000000000000002\n",
     "line 2: process_noise_mix must lie in [0, 1], got 1.0000000000000002"),
], ids=["frequency", "hot-temperature", "samples", "curve-width", "curve-points",
        "curve-window", "noise-mix"])
def test_each_range_check_sits_on_its_line(inside, outside, message):
    # the value just inside the line is taken, the one just outside refused
    o.parse_config(inside)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        o.parse_config(outside)


def test_of_several_bad_values_the_error_names_the_first_in_field_order():
    text = "[monte_carlo]\nseed = -1\n[drive]\nn_steps = 0\n"
    with pytest.raises(ConfigError, match="^line 4: n_steps must be at least 1, got 0$"):
        o.parse_config(text)
    with pytest.raises(ConfigError, match="^n_steps must be at least 1, got 0$"):
        o.apply_overrides(o.RunConfig(), seed=-1, n_steps=0)


def test_a_window_error_names_the_line_of_the_value_the_file_set():
    for text, line in (
        ("[output]\ncurve_min_pev = 40\n", 2),
        ("[output]\ncurve_min_pev = 10\ncurve_max_pev = -10\n", 3),
        ("[output]\n\ncurve_max_pev = -40\n", 3),
    ):
        with pytest.raises(ConfigError, match=f"^line {line}: curve_min_pev must be below"):
            o.parse_config(text)


def test_the_readme_config_example_is_the_defaults_and_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert o.parse_config(block) == o.RunConfig()
    named, section = set(), None
    for line in block.splitlines():
        line = line.lstrip("# ")
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            named.add((section, line.partition("=")[0].strip()))
    assert named == {(section, key) for section, key, *_ in config._KEYS.values()}
