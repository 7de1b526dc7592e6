"""End-to-end command-line checks, run in-process through ``main``, and
through the process entry in a fresh interpreter."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ottospin import cli, config, parse_config, propagator, run_cycle, to_cycle_config
from ottospin.cli import main

from conftest import _package_caches
import oracles

H = 4.135667696


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_covers_the_default_grid(capsys):
    rc, out, err = _run(capsys, ["sweep", "--mc-samples", "5"])
    assert rc == 0 and err == ""
    rows = _rows(out)
    assert len(rows) == 10
    assert [float(r["tau_us"]) for r in rows] == [
        100, 200, 235, 260, 300, 320, 420, 500, 600, 700
    ]
    # every report column plus a spread column for each sampled quantity
    assert "mean_work_pev" in rows[0] and "mean_work_pev_stddev" in rows[0]


def test_sweep_slowest_ramp_approaches_the_ideal_efficiency(capsys):
    rc, out, _ = _run(capsys, ["sweep", "--mc-samples", "2"])
    last = _rows(out)[-1]
    assert float(last["tau_us"]) == 700
    assert abs(float(last["efficiency"]) - (1 - 2.0 / 3.6)) < 0.03
    assert last["extraction_ok"] == "true"


def test_sweep_hot_option_changes_the_carnot_column(capsys):
    _, out_a, _ = _run(capsys, ["sweep", "--hot", "A", "--mc-samples", "2"])
    _, out_b, _ = _run(capsys, ["sweep", "--hot", "B", "--mc-samples", "2"])
    assert float(_rows(out_a)[0]["efficiency_carnot"]) == pytest.approx(1 - 6.6 / 21.5, abs=1e-9)
    assert float(_rows(out_b)[0]["efficiency_carnot"]) == pytest.approx(1 - 6.6 / 40.5, abs=1e-9)


def test_sweep_is_byte_identical_across_reruns(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--mc-samples", "50", "--seed", "4", "--out", str(a)]) == 0
    assert main(["sweep", "--mc-samples", "50", "--seed", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_seed_changes_the_spread_columns(capsys):
    _, out1, _ = _run(capsys, ["sweep", "--mc-samples", "20", "--seed", "1"])
    _, out2, _ = _run(capsys, ["sweep", "--mc-samples", "20", "--seed", "2"])
    col1 = [r["mean_work_pev_stddev"] for r in _rows(out1)]
    col2 = [r["mean_work_pev_stddev"] for r in _rows(out2)]
    assert col1 != col2
    # the point estimates are noise-free and must not move
    assert [r["mean_work_pev"] for r in _rows(out1)] == [
        r["mean_work_pev"] for r in _rows(out2)
    ]


def test_cycle_emits_a_single_row(capsys):
    rc, out, _ = _run(capsys, ["cycle", "--tau", "300", "--mc-samples", "5"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert float(rows[0]["tau_us"]) == 300


def test_work_dist_fast_ramp_resolves_nine_atoms(capsys):
    rc, out, _ = _run(capsys, ["work-dist", "--tau", "100"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 9
    energies = sorted(float(r["energy_pev"]) for r in rows)
    expected = sorted(H * k for k in (0.0, 1.6, -1.6, 2.0, -2.0, 3.6, -3.6, 5.6, -5.6))
    for got, want in zip(energies, expected):
        assert got == pytest.approx(want, abs=0.01)
    assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_work_dist_slow_ramp_concentrates_on_the_adiabatic_atoms(capsys):
    _, out, _ = _run(capsys, ["work-dist", "--tau", "700"])
    adiabatic = 0.0
    for r in _rows(out):
        if min(abs(float(r["energy_pev"]) - e) for e in (0.0, H * 1.6, -H * 1.6)) < 0.01:
            adiabatic += float(r["probability"])
    assert adiabatic > 0.99


def test_heat_dist_has_three_atoms_at_the_hot_gap(capsys):
    rc, out, _ = _run(capsys, ["heat-dist", "--tau", "100"])
    assert rc == 0
    energies = sorted(float(r["energy_pev"]) for r in _rows(out))
    assert energies == pytest.approx([-H * 3.6, 0.0, H * 3.6], abs=1e-9)


def test_work_dist_writes_a_broadened_curve_next_to_the_table(tmp_path, capsys):
    out_path = tmp_path / "dist.csv"
    assert main(["work-dist", "--tau", "100", "--out", str(out_path)]) == 0
    capsys.readouterr()
    curve_path = tmp_path / "dist_curve.csv"
    assert out_path.exists() and curve_path.exists()
    curve = _rows(curve_path.read_text())
    assert {"energy_pev", "density"} <= set(curve[0])
    densities = [float(r["density"]) for r in curve]
    assert max(densities) > 0


def test_json_distribution_is_a_single_object(capsys):
    rc, out, _ = _run(capsys, ["work-dist", "--tau", "100", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "work"
    assert obj["tau_us"] == 100
    assert len(obj["atoms"]) == 9
    assert 0.32 <= obj["transition_prob"] <= 0.44


def test_json_heat_distribution_is_labelled_by_its_command(capsys):
    rc, out, _ = _run(capsys, ["heat-dist", "--tau", "100", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert list(obj) == ["kind", "tau_us", "transition_prob", "atoms", "curve"]
    assert obj["kind"] == "heat"
    assert obj["tau_us"] == 100
    assert len(obj["atoms"]) == 3


def test_json_sweep_is_a_list_of_row_objects(capsys):
    rc, out, _ = _run(capsys, ["sweep", "--format", "json", "--mc-samples", "2"])
    assert rc == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 10
    assert data[-1]["extraction_ok"] is True


def test_qpt_process_matrix_is_real_and_near_ideal(capsys):
    rc, out, _ = _run(capsys, ["qpt", "--tau", "100"])
    assert rc == 0
    head, summary_text = out.split("\n\n")
    entries = _rows(head)
    assert len(entries) == 16
    assert all(abs(float(r["imag"])) < 1e-9 for r in entries)
    summary = _rows(summary_text)[0]
    assert float(summary["unitality_defect"]) < 1e-10
    assert float(summary["trace_distance_to_ideal"]) < 1e-12
    assert float(summary["noise_mix"]) == 0.0


def test_qpt_noise_mix_moves_the_process_away_from_ideal(tmp_path, capsys):
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("[process]\nnoise_mix = 0.05\n")
    out_path = tmp_path / "qpt.csv"
    assert main(["qpt", "--tau", "100", "--config", str(cfg), "--out", str(out_path)]) == 0
    capsys.readouterr()
    summary = _rows((tmp_path / "qpt_summary.csv").read_text())[0]
    assert float(summary["noise_mix"]) == 0.05
    assert float(summary["trace_distance_to_ideal"]) > 0.01


def test_config_file_drives_the_sweep_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[cycle]\ntau_list_us = 300, 500\n[monte_carlo]\nsamples = 2\n")
    rc, out, _ = _run(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 0
    assert [float(r["tau_us"]) for r in _rows(out)] == [300, 500]


def test_flag_overrides_win_over_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[thermal]\nhot_option = custom\nkt_hot_pev = 30.0\n")
    rc, out, _ = _run(capsys, ["sweep", "--hot", "A", "--mc-samples", "2", "--config", str(cfg)])
    assert rc == 0
    assert float(_rows(out)[0]["efficiency_carnot"]) == pytest.approx(1 - 6.6 / 21.5, abs=1e-9)


def test_missing_config_file_is_an_io_error(capsys):
    rc, _, err = _run(capsys, ["sweep", "--config", "/no/such/file.cfg"])
    assert rc == 2
    assert err != ""


def test_invalid_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[drive]\nnu_initial_khz = -2\n")
    rc, _, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 1
    assert "error" in err and "line 2" in err


def test_unconverged_propagator_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[drive]\nn_steps = 1\n")
    rc, out, err = _run(capsys, ["cycle", "--config", str(cfg), "--tau", "700"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_a_long_drive_converges_toward_the_otto_efficiency(tmp_path, capsys):
    # 180 cycles at the final gap: the step doubling stops at 1024 steps
    cfg = tmp_path / "long.cfg"
    cfg.write_text("[cycle]\ntau_us = 50000\n")
    rc, out, err = _run(capsys, ["cycle", "--config", str(cfg)])
    assert (rc, err) == (0, "")
    (row,) = _rows(out)
    assert float(row["tau_us"]) == 50000 and float(row["transition_prob"]) < 1e-6
    assert float(row["efficiency"]) == pytest.approx(float(row["efficiency_otto"]), abs=1e-5)


def test_transition_symmetry_violation_is_a_one_line_error(monkeypatch, capsys):
    exact = propagator.eigensystem

    def sheared(h):
        # non-orthogonal eigenvector columns make the two cross elements differ
        energies, vectors = exact(h)
        return energies, vectors @ np.array([[1.0, 0.01], [0.0, 1.0]])

    monkeypatch.setattr(propagator, "eigensystem", sheared)
    rc, out, err = _run(capsys, ["cycle", "--tau", "100"])
    assert rc == 1 and out == ""
    assert err.startswith("error: transition-probability symmetry violated")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_transition_symmetry_violation_in_a_sweep_is_a_one_line_error(monkeypatch, capsys):
    exact = propagator.eigensystem

    def sheared(h):
        energies, vectors = exact(h)
        return energies, vectors @ np.array([[1.0, 0.01], [0.0, 1.0]])

    monkeypatch.setattr(propagator, "eigensystem", sheared)
    rc, out, err = _run(capsys, ["sweep", "--mc-samples", "5"])
    assert rc == 1 and out == ""
    assert err.startswith("error: transition-probability symmetry violated")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "config_text, argv",
    [
        ("", ["cycle", "--tau", "inf"]),
        ("[drive]\nnu_final_khz = inf\n", ["sweep"]),
        ("[cycle]\ntau_list_us = 100.0, inf\n", ["sweep"]),
    ],
    ids=["tau-flag", "final-frequency", "tau-list-entry"],
)
def test_non_finite_drive_input_is_a_one_line_error(
    tmp_path, capsys, recwarn, config_text, argv
):
    cfg = tmp_path / "drive.cfg"
    cfg.write_text(config_text)
    rc, out, err = _run(capsys, [*argv, "--config", str(cfg)])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "must be finite and positive" in err
    assert err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "config_text, command, message",
    [
        ("[cycle]\ntau_us = 1e300\n", "cycle",
         "error: propagator: overflow encountered in multiply "
         "(nu_initial_khz = 2, nu_final_khz = 3.6, tau_us = 1e+300)"),
        ("[cycle]\ntau_list_us = 100, 1e300\n", "sweep",
         "error: propagator: overflow encountered in multiply "
         "(nu_initial_khz = 2, nu_final_khz = 3.6, max(tau_list_us) = 1e+300)"),
        ("[drive]\nnu_initial_khz = 1e308\nnu_final_khz = 1e308\n", "cycle",
         "error: propagator: overflow encountered in multiply "
         "(nu_initial_khz = 1e+308, nu_final_khz = 1e+308, tau_us = 100)"),
        ("[drive]\nnu_initial_khz = 1e308\nnu_final_khz = 1e308\n", "qpt",
         "error: propagator: overflow encountered in multiply "
         "(nu_initial_khz = 1e+308, nu_final_khz = 1e+308, tau_us = 100)"),
        ("[thermal]\nkt_cold_pev = inf\n", "sweep",
         "error: line 2: kt_cold_pev must be finite and positive, got inf"),
    ],
    ids=["huge-duration", "huge-duration-in-a-sweep", "huge-frequencies",
         "huge-frequencies-qpt", "infinite-cold-bath"],
)
def test_a_config_at_the_float_range_is_a_one_line_error(
    tmp_path, capsys, config_text, command, message
):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(config_text)
    rc, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert (rc, out, err) == (1, "", message + "\n")


# baths whose gap/kT is past the float range: Python's float division gives
# inf there and raises nothing, and the cycle report printed an infinite lag
GAP_OVER_KT_OVERFLOWS = {
    "cold": ("[thermal]\nkt_cold_pev = 3e-308\n[monte_carlo]\nnoise_width = 0\n",
             "error: cold bath gap/kT is not finite: nu_initial_khz = 2, kt_cold_pev = 3e-308"),
    "cold-subnormal": ("[thermal]\nkt_cold_pev = 1e-310\n",
                       "error: cold bath gap/kT is not finite: "
                       "nu_initial_khz = 2, kt_cold_pev = 1e-310"),
    "hot": ("[thermal]\nhot_option = custom\nkt_hot_pev = 4e-308\n"
            "[monte_carlo]\nnoise_width = 0\n",
            "error: hot bath gap/kT is not finite: nu_final_khz = 3.6, kt_hot_pev = 4e-308"),
}


@pytest.mark.parametrize("command", ["cycle", "sweep"])
@pytest.mark.parametrize("bath", sorted(GAP_OVER_KT_OVERFLOWS))
def test_a_bath_whose_gap_over_kt_overflows_is_a_one_line_error(tmp_path, capsys, bath, command):
    config_text, message = GAP_OVER_KT_OVERFLOWS[bath]
    cfg = tmp_path / "bath.cfg"
    cfg.write_text(config_text)
    assert _run(capsys, [command, "--config", str(cfg)]) == (1, "", message + "\n")


@pytest.mark.parametrize("command", ["work-dist", "heat-dist"])
@pytest.mark.parametrize("bath", sorted(GAP_OVER_KT_OVERFLOWS))
def test_a_distribution_on_a_bath_whose_gap_over_kt_overflows(tmp_path, capsys, bath, command):
    # the atoms take the populations, which are right at gap/kT = inf
    cfg = tmp_path / "bath.cfg"
    cfg.write_text(GAP_OVER_KT_OVERFLOWS[bath][0])
    rc, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert rc == 0 and err == ""
    probabilities = [float(row["probability"]) for row in _rows(out)]
    assert probabilities and min(probabilities) > 0.0
    assert sum(probabilities) == pytest.approx(1.0, abs=1e-9)  # 12 digits a cell


def _overflow(*args, **kwargs):
    return np.multiply(1e308, 10.0)  # raises under main's errstate


@pytest.mark.parametrize(
    "module, name, argv, line",
    [
        ("cycle", "_drive_relative_entropy", ["cycle"], "cycle report"),
        ("cycle", "_repair_batch", ["cycle"], "Monte Carlo"),
        ("tpm", "_stay_probability", ["work-dist"], "TPM"),
        ("process", "apply_process", ["qpt"], "process"),
    ],
)
def test_a_floating_point_error_line_names_its_stage(
    monkeypatch, capsys, module, name, argv, line
):
    monkeypatch.setattr(f"ottospin.{module}.{name}", _overflow)
    rc, out, err = _run(capsys, [*argv, "--tau", "300"])
    assert (rc, out) == (1, "")
    assert err == f"error: {line}: overflow encountered in multiply\n"


def test_a_floating_point_error_outside_the_stages_names_none(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_render_table", _overflow)
    rc, out, err = _run(capsys, ["cycle", "--mc-samples", "5"])
    assert (rc, out, err) == (1, "", "error: overflow encountered in multiply\n")


def test_an_infinite_stroke_time_is_a_one_line_error(tmp_path, capsys):
    # it printed power_pev_per_ms 0 and exited 0
    cfg = tmp_path / "stroke.cfg"
    cfg.write_text("[cycle]\nt_thermalization_us = inf\n")
    rc, out, err = _run(capsys, ["cycle", "--tau", "300", "--config", str(cfg)])
    assert (rc, out, err) == (
        1, "", "error: line 2: t_thermalization_us must be finite and positive, got inf\n")


def test_an_infinite_hot_bath_still_reports(tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("[thermal]\nhot_option = custom\nkt_hot_pev = inf\n")
    rc, out, err = _run(capsys, ["cycle", "--config", str(cfg), "--mc-samples", "5"])
    assert rc == 0 and err == ""
    assert float(_rows(out)[0]["efficiency_carnot"]) == 1.0


@pytest.mark.parametrize("command", ["sweep", "cycle"])
@pytest.mark.parametrize("setting, line", [
    ("nu_initial_khz = 1e-15", "at the cold end: nu_initial_khz = 1e-15"),
    ("nu_final_khz = 2e-15", "at the hot end: nu_final_khz = 2e-15"),
])
def test_a_degenerate_endpoint_gap_names_its_key(tmp_path, capsys, command, setting, line):
    # the line named no key
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(f"[drive]\n{setting}\n")
    rc, out, err = _run(capsys, [command, "--config", str(cfg), "--mc-samples", "2"])
    assert (rc, out, err) == (1, "", f"error: degenerate Hamiltonian {line}\n")


def _assert_counted_reference_error(tmp_path, capsys, config_text, width, count):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(config_text)
    rc, out, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 1 and out == ""
    assert err == (
        f"error: relative entropy infinite: {count} of 1000 Monte Carlo samples have "
        f"a rank-deficient reference at noise width {width}\n"
    )


def test_rank_deficient_monte_carlo_reference_is_a_counted_one_line_error(tmp_path, capsys):
    _assert_counted_reference_error(
        tmp_path, capsys, "[monte_carlo]\nnoise_width = 0.3\n", "0.3", 540
    )


def test_cold_bath_monte_carlo_reference_is_a_counted_one_line_error(tmp_path, capsys):
    # gap/kT_cold = 41: most noisy cold references repair to a pure state
    _assert_counted_reference_error(
        tmp_path, capsys, "[thermal]\nkt_cold_pev = 0.2\n", "0.01", 509
    )


# 5812 cycles at nu_final_khz: at the 4096-step cap each step turns the
# state by 4.46 rad, past the Magnus convergence radius, where two doublings
# agreed to the tolerance on a wrong xi of 7.4123871723e-10 (7.603312e-10 by
# a 65536-step product and by the second-order adiabatic closed form)
LONG_DRIVE_CONFIG = "[drive]\nnu_initial_khz = 1.8507\nnu_final_khz = 2.9259\n" \
    "[cycle]\ntau_us = 1986413\n"


@pytest.mark.parametrize("command", ["cycle", "qpt"])  # the sweep and one-tau routes
def test_a_drive_past_the_magnus_radius_at_the_step_cap_is_a_one_line_error(
    tmp_path, capsys, command
):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(LONG_DRIVE_CONFIG)
    rc, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert (rc, out) == (1, "")
    # the 2048 -> 4096 change, 6.2e-9, met the tolerance; the guard refused it
    assert err == (
        "error: Magnus product refused by the step-angle guard after 6 doublings from "
        "n_steps=64: its 4096 steps met 1e-08, but tau_us = 1.98641e+06 (5812.05 cycles "
        "at max(nu_initial_khz, nu_final_khz) = 2.9259) needs more than 11624.1 steps\n")


@pytest.mark.parametrize(
    "width, message",
    [
        ("inf", "mc_noise_width must be finite and nonnegative, got inf"),
        ("1e308", "Monte Carlo noise overflows at noise width 1e+308"),
        # finite |r| after rescaling: nearly every reference repairs to a
        # pure state and is counted
        ("1e200", "Monte Carlo samples have a rank-deficient reference"),
    ],
)
def test_huge_or_infinite_noise_width_is_a_one_line_error(
    tmp_path, capsys, recwarn, width, message
):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"[monte_carlo]\nnoise_width = {width}\n")
    rc, out, err = _run(capsys, ["cycle", "--config", str(cfg)])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert err.startswith("error:") and message in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 2.33 TiB for an array"),
         "error: out of memory: Unable to allocate 2.33 TiB for an array\n"),
        (MemoryError(), "error: out of memory: allocation failed\n"),
    ],
)
def test_an_allocation_that_fails_is_a_one_line_error(monkeypatch, capsys, exc, message):
    # never a real huge array here: under memory overcommit it can exhaust
    # the machine instead of raising
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "sweep_with_uncertainty", exhausted)
    rc, out, err = _run(capsys, ["cycle", "--tau", "300", "--mc-samples", "10000000000"])
    assert rc == 1 and out == ""
    assert err == message


def test_cold_bath_sweep_without_noise_reports_every_row(tmp_path, capsys):
    # gap/kT_cold = 41: the cold excited population is below 1e-17
    cfg = tmp_path / "cold.cfg"
    cfg.write_text("[thermal]\nkt_cold_pev = 0.2\n[monte_carlo]\nnoise_width = 0.0\n")
    rc, out, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 0 and err == ""
    rows = _rows(out)
    assert len(rows) == 10
    for row in rows:
        assert all(math.isfinite(float(v)) for k, v in row.items() if k != "extraction_ok")


@pytest.mark.parametrize("command", ["work-dist", "heat-dist"])
def test_distribution_on_a_cold_bath_past_exp_overflow(tmp_path, capsys, command):
    # gap/kT_cold = 827: exp(gap/kT) overflows a double
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text("[thermal]\nkt_cold_pev = 0.01\n")
    rc, out, err = _run(capsys, [command, "--tau", "300", "--config", str(cfg)])
    assert rc == 0 and err == ""
    rows = _rows(out)
    assert rows and all(float(r["probability"]) > 0.0 for r in rows)
    assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tau", ["100", "300", "700"])
@pytest.mark.parametrize("kt_hot", ["1e300", "1.7e308", "inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["work-dist", "heat-dist"])
def test_a_distribution_on_baths_where_the_cycle_report_underflows(
    tmp_path, capsys, command, fmt, kt_hot, tau
):
    # gap/kT below ~1e-154 on both baths: the report's relative-entropy sum
    # and hot heat underflow, but the atoms need only the drive's swap
    # probability, which no bath enters
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(f"[thermal]\nkt_cold_pev = 1e300\nhot_option = custom\nkt_hot_pev = {kt_hot}\n")
    rc, out, err = _run(capsys, [command, "--tau", tau, "--format", fmt, "--config", str(cfg)])
    assert rc == 0 and err == ""
    if fmt == "json":
        payload = json.loads(out)
        default = run_cycle(to_cycle_config(config.RunConfig(), float(tau)))
        assert payload["transition_prob"] == default.transition_prob
        atoms = [(atom["energy_pev"], atom["probability"]) for atom in payload["atoms"]]
    else:
        atoms = [(float(row["energy_pev"]), float(row["probability"])) for row in _rows(out)]
    assert atoms and all(math.isfinite(value) for atom in atoms for value in atom)
    assert abs(sum(p for _, p in atoms) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "config_text",
    ["[thermal]\nhot_option = A\n", "[thermal]\nhot_option = B\n", "[drive]\nn_steps = 7\n"],
    ids=["hot-A", "hot-B", "steps-7"],
)
def test_the_printed_swap_probability_is_the_cycle_reports(tmp_path, capsys, config_text):
    # the distributions take xi from the drive alone, the report from its
    # swept stack: both routes must give the same bits
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    run_cfg = parse_config(config_text)
    expected = [run_cycle(to_cycle_config(run_cfg, tau)).transition_prob
                for tau in run_cfg.tau_list_us]
    # no propagator kept by the reports may answer the command's drive
    for cache in _package_caches():
        cache.cache_clear()
    for tau, swap_prob in zip(run_cfg.tau_list_us, expected):
        rc, out, err = _run(capsys, ["work-dist", "--format", "json", "--tau", repr(tau),
                                     "--config", str(cfg)])
        assert rc == 0 and err == ""
        assert json.loads(out)["transition_prob"] == swap_prob, tau


def test_work_atoms_with_subnormal_weights_keep_their_lattice_energies(tmp_path, capsys):
    # cold excited population 1.3e-318: three work atoms weigh below 1e-300
    cfg = tmp_path / "cold.cfg"
    cfg.write_text("[thermal]\nkt_cold_pev = 0.0113\n")
    rc, out, err = _run(capsys, ["work-dist", "--tau", "300", "--config", str(cfg)])
    assert rc == 0 and err == ""
    lattice = ["23.1597390976", "14.8884037056", "8.271335392", "6.6170683136"]
    expected = ["-" + e for e in lattice] + ["0"] + lattice[::-1]
    assert [row["energy_pev"] for row in _rows(out)] == expected


def test_an_engine_whose_gaps_are_within_the_merge_tolerance_gives_a_report(
    tmp_path, capsys
):
    # gaps of 4.8e-10 and 5.5e-10 peV: every work history merges into one atom
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[drive]\nnu_initial_khz = 1.33e-10\nnu_final_khz = 1.15e-10\n"
        "[thermal]\nhot_option = custom\nkt_cold_pev = 2.35e-11\nkt_hot_pev = 5.88e-11\n"
    )
    rc, out, err = _run(capsys, ["work-dist", "--tau", "100", "--config", str(cfg)])
    assert rc == 0 and err == ""
    (row,) = _rows(out)
    assert row["probability"] == "1"
    mean_work = run_cycle(to_cycle_config(parse_config(cfg.read_text()), 100.0)).mean_work_pev
    assert float(row["energy_pev"]) == pytest.approx(mean_work, rel=1e-10)


@pytest.mark.parametrize(
    "config_text, argv, message",
    [
        (f"[drive]\nn_steps = {2**63}\n", ["qpt", "--tau", "300"],
         f"error: n_steps {2**63} is too large for an array\n"),
        (f"[drive]\nn_steps = {2**63 - 1}\n", ["cycle", "--mc-samples", "5"],
         f"error: n_steps {2**63 - 1} is too large for an array\n"),
        (f"[output]\ncurve_points = {2**63}\n", ["work-dist"],
         f"error: curve_points {2**63} is too large for an array\n"),
        (f"[output]\ncurve_points = {2**63 - 1}\n", ["heat-dist", "--format", "json"],
         f"error: curve_points {2**63 - 1} is too large for an array\n"),
    ],
    ids=["steps-qpt", "steps-cycle", "curve-work", "curve-heat-json"],
)
def test_a_count_numpy_cannot_hold_is_a_one_line_error(tmp_path, capsys, config_text, argv,
                                                      message):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config_text)
    assert _run(capsys, [*argv, "--config", str(cfg)]) == (1, "", message)


@pytest.mark.parametrize(
    "argv, written",
    [
        (["work-dist"], {"t.csv", "t_curve.csv"}),
        (["heat-dist"], {"t.csv", "t_curve.csv"}),
        (["qpt"], {"t.csv", "t_summary.csv"}),
        (["sweep", "--mc-samples", "5"], {"t.csv"}),
        (["cycle", "--mc-samples", "5"], {"t.csv"}),
        *[([command, "--format", "json", *(["--mc-samples", "5"] if mc else [])], {"t.csv"})
          for command, mc in (("sweep", True), ("cycle", True), ("work-dist", False),
                              ("heat-dist", False), ("qpt", False))],
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "files",
)
def test_each_command_writes_exactly_its_files(tmp_path, capsys, argv, written):
    rc, out, err = _run(capsys, [*argv, "--out", str(tmp_path / "t.csv")])
    assert (rc, out, err) == (0, "", "")
    assert {p.name for p in tmp_path.iterdir()} == written
    if "json" in argv:
        json.loads((tmp_path / "t.csv").read_text())
    else:
        header = (tmp_path / "t.csv").read_text().split("\n", 1)[0]
        assert header.startswith(("energy_pev,probability", "row,col", "tau_us,"))


@pytest.mark.parametrize("command", ["work-dist", "heat-dist"])
def test_a_distribution_on_stdout_carries_no_curve(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    rc, out, err = _run(capsys, [command])
    assert (rc, err) == (0, "") and out.count("\n\n") == 0
    assert out.split("\n", 1)[0] == "energy_pev,probability"
    assert "density" not in out and not list(tmp_path.iterdir())


def test_unwritable_output_path_is_an_io_error(capsys):
    rc, _, _ = _run(capsys, ["cycle", "--tau", "300", "--mc-samples", "2",
                             "--out", "/no/such/dir/out.csv"])
    assert rc == 2


def test_unknown_flag_value_is_a_usage_error(capsys):
    assert main(["sweep", "--hot", "Z"]) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, flags", [
    ("sweep", ["--config", "--out", "--format", "--hot", "--seed", "--mc-samples"]),
    ("cycle", ["--config", "--out", "--format", "--hot", "--seed", "--tau", "--mc-samples"]),
    ("work-dist", ["--config", "--out", "--format", "--hot", "--tau"]),
    ("heat-dist", ["--config", "--out", "--format", "--hot", "--tau"]),
    ("qpt", ["--config", "--out", "--format", "--tau"]),
])
def test_each_command_takes_only_the_flags_it_reads(capsys, command, flags):
    rc, out, _ = _run(capsys, [command, "--help"])
    assert rc == 0
    assert re.findall(r"^  (--[a-z-]+)", out, flags=re.MULTILINE) == flags


@pytest.mark.parametrize("argv, flag", [
    (["qpt", "--tau", "300", "--seed", "3"], "--seed 3"),
    (["qpt", "--hot", "A"], "--hot A"),
    (["work-dist", "--seed", "3"], "--seed 3"),
    (["heat-dist", "--seed", "3"], "--seed 3"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv, flag):
    # qpt reads no bath temperature, and only the Monte Carlo reads a seed
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err == ("usage: ottospin [-h] COMMAND ...\n"
                   f"ottospin: error: unrecognized arguments: {flag}\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "3", "--mc-samples", "2"],
    ["cycle", "--hot", "A", "--mc-samples", "2"],
    ["work-dist", "--hot", "A"],
    ["heat-dist", "--hot", "A"],
], ids=" ".join)
def test_a_flag_the_command_reads_changes_its_output(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out != _run(capsys, argv[:1] + argv[3:])[1]


def test_help_documents_the_output_columns(capsys):
    for sub, needle in (
        ("sweep", "mean_work_pev"),
        ("work-dist", "energy_pev"),
        ("qpt", "unitality_defect"),
    ):
        rc, out, _ = _run(capsys, [sub, "--help"])
        assert rc == 0
        assert needle in out


@pytest.mark.parametrize(
    "setting, message",
    [
        ("lorentzian_fwhm_pev = inf", "lorentzian_fwhm_pev must be finite and nonnegative"),
        ("lorentzian_fwhm_pev = nan", "lorentzian_fwhm_pev must be finite and nonnegative"),
        ("curve_min_pev = nan", "curve_min_pev must be finite, got nan"),
        ("curve_max_pev = inf", "curve_max_pev must be finite, got inf"),
        ("curve_min_pev = -inf", "curve_min_pev must be finite, got -inf"),
        ("lorentzian_fwhm_pev = 1e200", "fwhm 1e+200 is too wide"),
        ("lorentzian_fwhm_pev = 1e-200", "fwhm 1e-200 is too narrow"),
    ],
)
def test_curve_settings_that_cannot_be_drawn_are_a_one_line_error(
    tmp_path, capsys, recwarn, setting, message
):
    cfg = tmp_path / "curve.cfg"
    cfg.write_text(f"[output]\n{setting}\n")
    out_path = tmp_path / "wd.csv"
    rc, out, err = _run(capsys, ["work-dist", "--config", str(cfg), "--out", str(out_path)])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert err.startswith("error:") and message in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "wd_curve.csv").exists()


def test_a_curve_window_far_beyond_every_atom_draws_zeros_without_a_warning(
    tmp_path, capsys, recwarn
):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[output]\ncurve_min_pev = -1e300\ncurve_max_pev = 1e300\ncurve_points = 3\n")
    rc, out, err = _run(capsys, ["work-dist", "--config", str(cfg), "--format", "json"])
    assert rc == 0 and err == ""
    assert json.loads(out)["curve"]["density"][::2] == [0.0, 0.0]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [["work-dist", "--tau", "300"], ["heat-dist", "--tau", "700"]],
                         ids=lambda argv: argv[0])
def test_a_curve_window_wider_than_the_float_range_names_its_keys(tmp_path, capsys, argv):
    # it printed "error: overflow encountered in subtract", from np.linspace
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[output]\ncurve_min_pev = -1e308\ncurve_max_pev = 1e308\n")
    rc, out, err = _run(capsys, [*argv, "--config", str(cfg)])
    assert (rc, out, err) == (
        1, "", "error: curve_max_pev - curve_min_pev must be finite, got 1e+308 - -1e+308\n")


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["sweep", "--mc-samples", "20"], None),
        (["cycle", "--tau", "300", "--mc-samples", "20"], None),
        (["work-dist", "--tau", "300"], None),
        (["heat-dist", "--tau", "700"], None),
        (["qpt"], None),
        (["qpt"], "[process]\nnoise_mix = 0.3\n"),
        (["qpt", "--format", "json"], None),
    ],
    ids=["sweep", "cycle", "work-dist", "heat-dist", "qpt", "qpt-noise-mix", "qpt-json"],
)
def test_the_cycle_and_distribution_commands_call_no_lapack_eigensolver(
    monkeypatch, capsys, tmp_path, argv, config_text
):
    # every state is a qubit: the endpoint eigensystem and the Gibbs states
    # are closed forms, and the 4x4 process matrices go through Jacobi
    # rotations
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv = [*argv, "--config", str(cfg)]

    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolver was called")

    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            patch.setattr(np.linalg, name, refuse)
        patched = _run(capsys, argv)
    for cache in _package_caches():  # the unpatched run computes afresh
        cache.cache_clear()
    assert patched[0] == 0
    assert patched == _run(capsys, argv)


# --- the CLI contract over drawn configs ----------------------------------------

COMMANDS = tuple(cli._COMMANDS)
EDGE_FLOATS = (5e-324, 1e-12, 1e300, 1.7e308, math.inf)
# counts at the edges only: a mid-size count such as 2**31 steps, curve points
# or samples really allocates gigabytes, while each of these fails at once
EDGE_INTS = (0, 1, 2, 2**62, 2**63 - 1, 2**63, 2**64)
EDGE_STRINGS = {"hot_option": ("A", "B", "custom"), "output_format": ("csv", "json"),
                "output_path": (None, "out.csv")}
NON_FINITE_CELL = re.compile(r"\b(nan|inf|infinity|null)\b", re.IGNORECASE)


def _edge_values(field_name):
    """The edge values of one ``config._KEYS`` entry that its predicate accepts."""
    parser, predicate = config._KEYS[field_name][2:4]
    if parser is float:
        candidates = (*EDGE_FLOATS, *(-v for v in EDGE_FLOATS), 0.0)
    elif parser is config._parse_float_list:
        candidates = [(v,) for v in EDGE_FLOATS] + [(100.0, v) for v in EDGE_FLOATS]
    elif parser is int:
        candidates = EDGE_INTS
    else:
        candidates = EDGE_STRINGS[field_name]
    return [v for v in candidates if predicate(v)]


@st.composite
def drawn_configs(draw):
    """1-4 distinct fields of ``config._KEYS``, each at one of its edge values
    (drawn from a permutation, which Hypothesis never rejects as a duplicate)."""
    names = draw(st.permutations(list(config._KEYS)))[: draw(st.integers(1, 4))]
    return {name: draw(st.sampled_from(_edge_values(name))) for name in names}


def _config_text(values, folder):
    lines = []
    for field_name, value in values.items():
        section, key = config._KEYS[field_name][:2]
        if field_name == "output_path" and value is not None:
            value = str(folder / value)
        lines.append(f"[{section}]\n{key} = {oracles.format_value(value)}\n")
    return "".join(lines)


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(drawn_configs())
@example({"kt_cold_pev": 0.2})  # the counted 509-of-1000 Monte Carlo error
@example({"mc_noise_width": 0.3})
@example({"tau_us": 1e300})
@example({"tau_list_us": (100.0, 1e300)})  # the propagator line names max(tau_list_us)
@example({"tau_us": 5e5})  # 1800 cycles: the step doubling gives up
# 5812 cycles: two doublings past the Magnus radius agreed on a wrong xi
@example({"nu_initial_khz": 1.8507, "nu_final_khz": 2.9259, "tau_us": 1986413.0})
@example({"n_steps": 2**63})  # np.arange gives an empty array at this size
@example({"curve_points": 2**63})  # np.linspace fails on an empty array
# the curve window's span overflows; only the distributions draw the curve
@example({"curve_min_pev": -1.7e308, "curve_max_pev": 1.7e308})
# the cycle report underflows on these baths, while the distributions report
@example({"kt_cold_pev": 1e300, "hot_option": "custom", "kt_hot_pev": 1e300})
@example({"kt_cold_pev": 1e300, "hot_option": "custom", "kt_hot_pev": 1.7e308})
@example({"kt_cold_pev": 1e300, "hot_option": "custom", "kt_hot_pev": math.inf})
# engines near the float range's ends, baths and drive durations to match:
# the endpoint eigensystem of gaps of 8e-300 (degenerate) and 7e300 peV
@example({"nu_initial_khz": 2e-300, "nu_final_khz": 3.6e-300, "kt_cold_pev": 6.6e-300,
          "hot_option": "custom", "kt_hot_pev": 4.05e-299, "tau_us": 1e302,
          "tau_list_us": (1e302, 2e302)})
@example({"nu_initial_khz": 2e300, "nu_final_khz": 3.6e300, "kt_cold_pev": 6.6e300,
          "hot_option": "custom", "kt_hot_pev": 4.05e301, "tau_us": 1e-298,
          "tau_list_us": (1e-298, 2e-298)})
# an infinite stroke time gave a power of 0 where it must give an error line
@example({"t_thermalization_us": math.inf})
# a gap/kT past the float range gave an infinite lag, as inf or null
@example({"kt_cold_pev": 3e-308, "mc_noise_width": 0.0})
@example({"kt_cold_pev": 3e-308, "mc_noise_width": 0.0, "output_format": "json"})
@example({"hot_option": "custom", "kt_hot_pev": 4e-308, "mc_noise_width": 0.0})
def test_every_drawn_config_gives_a_report_or_one_error_line(values):
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        (folder / "run.cfg").write_text(_config_text(values, folder), encoding="utf-8")
        for command in COMMANDS:
            for written in folder.glob("out*"):
                written.unlink()
            rc, out, err, caught = _run_captured([command, "--config", str(folder / "run.cfg")])
            context = (command, values, rc, err, caught)
            assert not caught, context
            if rc == 0:
                assert err == "", context
                texts = [out, *(p.read_text() for p in folder.glob("out*"))]
                # a distribution drawn with no broadening has no curve, by design
                texts = [t.replace('"curve": null', "") for t in texts]
                assert not [t for t in texts if NON_FINITE_CELL.search(t)], context
            else:
                assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, context


# --- the process entry ----------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                   os.environ.get("PYTHONPATH", "")]))


def _run_process(argv, *, cwd):
    return subprocess.run([sys.executable, "-m", "ottospin.cli", *argv],
                          capture_output=True, env=ENV, cwd=cwd)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mc-samples", "5"],
        ["cycle", "--tau", "300", "--mc-samples", "5", "--format", "json"],
        ["work-dist", "--tau", "300"],
        ["heat-dist", "--tau", "700", "--format", "json"],
        ["qpt", "--tau", "300"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_run_as_a_process_prints_what_main_prints(tmp_path, capsys, argv):
    rc, out, err = _run(capsys, argv)
    done = _run_process(argv, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (rc, out.encode(), err.encode())
    assert rc == 0 and out and not err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--bogus"], 1),
        (["sweep", "--hot", "Z"], 1),
        (["sweep", "--config", "bad.cfg"], 1),
        (["sweep", "--config", "missing.cfg"], 2),
    ],
    ids=["bad-flag", "bad-flag-value", "bad-config-value", "missing-config"],
)
def test_a_failing_process_prints_one_error_line_and_mains_exit_code(
    tmp_path, capsys, monkeypatch, argv, code
):
    (tmp_path / "bad.cfg").write_text("[drive]\nnu_initial_khz = -2\n")
    monkeypatch.chdir(tmp_path)
    rc, out, err = _run(capsys, argv)
    done = _run_process(argv, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (rc, out.encode(), err.encode())
    assert rc == code and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


# each launcher reaches the entry as the console script and ``python -m`` do,
# and reports from an atexit handler, which must still run after the freeze
ENTRY_PROBES = {
    "console-script": "from ottospin.cli import _run\nsys.exit(_run())",
    "python-m": "import runpy\nrunpy.run_module('ottospin.cli', run_name='__main__')",
}


@pytest.mark.parametrize("launcher", sorted(ENTRY_PROBES))
def test_the_process_entry_freezes_the_collector_before_the_exit(tmp_path, capsys, launcher):
    argv = ["qpt", "--tau", "300"]
    probe = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        f"sys.argv = ['ottospin', *{argv!r}]\n" + ENTRY_PROBES[launcher]
    )
    rc, out, _ = _run(capsys, argv)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=ENV, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (rc, out.encode(), b"frozen True\n")


def test_main_leaves_the_collector_unfrozen(capsys):
    for argv in (["qpt", "--tau", "300"], ["sweep", "--hot", "Z"]):
        main(argv)
        assert gc.get_freeze_count() == 0 and gc.isenabled()
    capsys.readouterr()


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"ottospin": "ottospin.cli:_run"}
