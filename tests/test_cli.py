"""End-to-end command-line checks, run in-process through ``main``."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest

from ottospin import propagator
from ottospin.cli import main

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


def test_rank_deficient_monte_carlo_reference_is_a_counted_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[monte_carlo]\nnoise_width = 0.3\n")
    rc, out, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert "relative entropy infinite" in err and "noise width 0.3" in err
    count = re.search(r"(\d+) of 1000 Monte Carlo samples", err)
    assert count is not None and 0 < int(count.group(1)) <= 1000


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


def test_help_documents_the_output_columns(capsys):
    for sub, needle in (
        ("sweep", "mean_work_pev"),
        ("work-dist", "energy_pev"),
        ("qpt", "unitality_defect"),
    ):
        rc, out, _ = _run(capsys, [sub, "--help"])
        assert rc == 0
        assert needle in out
