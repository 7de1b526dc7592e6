"""Cycle-level quantities: means, efficiency, lag, entropy production.

Two themes run through this module.  First, every quantity that the library
computes from simulated states is rechecked against closed-form expressions
fed by nothing but populations.  Second, quantities with two independent
physical routes (efficiency vs. the lag identity, bath bookkeeping vs.
relative-entropy production) are required to agree without sharing code.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ottospin as o
from ottospin import cycle, propagator, spin
import oracles

PROTOCOL = o.DriveProtocol(2.0, 3.6, 100.0)
THERMAL_A = o.ThermalParams(6.6, 21.5)
THERMAL_B = o.ThermalParams(6.6, 40.5)
# cold baths deep enough that the cold excited population is e^-60 .. e^-17
COLD_CORNER = tuple(o.ThermalParams(kt, 40.5) for kt in (0.138, 0.2, 0.3, 0.5))
TAU_GRID = (100.0, 200.0, 235.0, 260.0, 300.0, 320.0, 420.0, 500.0, 600.0, 700.0)


def _config(tau_us, thermal=THERMAL_B):
    return o.CycleConfig(o.DriveProtocol(2.0, 3.6, tau_us), thermal)


kts = st.floats(min_value=1.0, max_value=80.0)
engine_swap_probs = st.floats(min_value=0.0, max_value=0.45)


# ---------------------------------------------------------------------------
# full simulated cycles
# ---------------------------------------------------------------------------

def test_run_cycle_slow_ramp_extracts_work_efficiently():
    report = o.run_cycle(_config(700.0))
    assert report.extraction_ok
    assert report.mean_work_pev > 0
    assert report.mean_heat_hot_pev > 0
    assert report.efficiency == pytest.approx(0.4412475070511658, abs=1e-9)
    assert report.efficiency == pytest.approx(oracles.EFFICIENCY_IDEAL_SWAP, abs=0.01)


def test_run_cycle_fast_ramp_wastes_work():
    report = o.run_cycle(_config(100.0))
    assert not report.extraction_ok
    assert report.mean_work_pev < 0


def test_report_satisfies_first_law():
    for tau in (100.0, 300.0, 700.0):
        r = o.run_cycle(_config(tau))
        assert r.mean_heat_hot_pev + r.mean_heat_cold_pev - r.mean_work_pev == pytest.approx(
            0.0, abs=1e-10
        )


def test_cold_heat_matches_an_independently_built_compression_stroke():
    # run_cycle takes the compression stroke as the adjoint of the expansion
    # propagator; here the stroke is propagated by the compression drive's
    # own product instead, at the expansion's step count.
    for tau in TAU_GRID:
        n_steps = o.evolve_unitary(o.DriveProtocol(2.0, 3.6, tau)).n_steps
        u_c = oracles.sequential_magnus_product(2.0, 3.6, tau, n_steps, True)
        for thermal in (THERMAL_A, THERMAL_B):
            cfg = _config(tau, thermal)
            h_cold, h_hot = o.endpoint_hamiltonians(cfg.protocol)
            rho_cold = o.gibbs_state(h_cold, thermal.kt_cold_pev)
            rho_hot = o.gibbs_state(h_hot, thermal.kt_hot_pev)
            after_comp = u_c @ rho_hot @ u_c.conj().T
            expected = np.real(np.trace(h_cold @ (rho_cold - after_comp)))
            assert o.run_cycle(cfg).mean_heat_cold_pev == pytest.approx(
                expected, abs=1e-9
            )


def test_report_means_match_closed_forms_at_the_simulated_swap_probability():
    r = o.run_cycle(_config(300.0))
    swap_prob = r.transition_prob
    assert r.mean_work_pev == pytest.approx(
        o.mean_work_closed_form(PROTOCOL, THERMAL_B, swap_prob), abs=1e-10
    )
    assert r.mean_heat_hot_pev == pytest.approx(
        o.mean_heat_hot_closed_form(PROTOCOL, THERMAL_B, swap_prob), abs=1e-10
    )
    assert r.mean_heat_cold_pev == pytest.approx(
        o.mean_heat_cold_closed_form(PROTOCOL, THERMAL_B, swap_prob), abs=1e-10
    )


def test_report_efficiency_bounds_and_carnot_values():
    r_a = o.run_cycle(_config(700.0, THERMAL_A))
    r_b = o.run_cycle(_config(700.0, THERMAL_B))
    assert r_a.efficiency_carnot == pytest.approx(oracles.CARNOT_OPTION_A, abs=1e-12)
    assert r_b.efficiency_carnot == pytest.approx(oracles.CARNOT_OPTION_B, abs=1e-12)
    assert r_b.efficiency_otto == pytest.approx(oracles.EFFICIENCY_IDEAL_SWAP, abs=1e-12)
    assert r_b.efficiency <= r_b.efficiency_otto <= r_b.efficiency_carnot


@pytest.mark.parametrize("cfg, period", [
    (_config(700.0), 2 * 700.0 + 7000.0),
    (o.CycleConfig(o.DriveProtocol(2.0, 3.6, 300.0), THERMAL_B, t_thermalization_us=3000.0),
     2 * 300.0 + 3000.0),
], ids=["default", "thermalization-3000"])
def test_power_is_work_over_total_cycle_duration(cfg, period):
    # the period is both drives plus the time with both baths
    r = o.run_cycle(cfg)
    assert r.power_pev_per_ms == 1000.0 * r.mean_work_pev / period


def test_lag_identity_across_the_grid():
    # efficiency equals the Carnot ceiling minus the lag penalty, always
    for thermal in (THERMAL_A, THERMAL_B, *COLD_CORNER):
        for tau in TAU_GRID:
            r = o.run_cycle(_config(tau, thermal))
            assert r.efficiency == pytest.approx(
                r.efficiency_carnot - r.efficiency_lag, abs=1e-9
            )


def test_lag_penalty_shrinks_from_fast_to_slow_driving():
    fast = o.run_cycle(_config(100.0))
    slow = o.run_cycle(_config(700.0))
    assert abs(fast.efficiency_lag) > 1.0
    assert abs(slow.efficiency_lag) < 0.5


def test_entropy_production_two_routes_agree():
    # bath bookkeeping (-Qc/kT1 - Qh/kT2) versus beta1*Qh*lag
    for thermal in (THERMAL_B, *COLD_CORNER):
        for tau in TAU_GRID:
            r = o.run_cycle(_config(tau, thermal))
            lag_route = r.mean_heat_hot_pev * r.efficiency_lag / thermal.kt_cold_pev
            assert r.entropy_production == pytest.approx(lag_route, abs=1e-10)


# a hot bath: cold gap/kT ~ 8e-6, where a difference of O(1) terms kept ~5 digits of L
HOT_BATH_ENGINE = (2.0, 3.6, 1e6, 6136363.6, 100.0)
# cold gap/kT = 1e-15: with the I/2 in the drive outputs, eta read 0.3158 for 0.4073
TINY_GAP_ENGINE = (2.0, 3.6, 8.271335392e15, 4.135667696e16, 300.0)


def _log_uniform(low, high):
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


@st.composite
def engines(draw):
    """(nu_i, nu_f, kT_cold, kT_hot, tau) with cold gap/kT from 1e-12 to 700
    and a drive of at most 20 cycles of the final gap."""
    nu_i = draw(_log_uniform(1e-3, 1e2))
    nu_f = nu_i * draw(st.floats(min_value=1.01, max_value=30.0))
    kt_cold = o.PLANCK_PEV_PER_KHZ * nu_i / draw(_log_uniform(1e-12, 700.0))
    kt_hot = kt_cold * draw(st.floats(min_value=1.01, max_value=100.0))
    tau = draw(_log_uniform(1.0, min(3000.0, 20.0 / (nu_f * 1e-3))))
    return nu_i, nu_f, kt_cold, kt_hot, tau


@settings(max_examples=150, derandomize=True, deadline=None)
@given(engines())
@example(HOT_BATH_ENGINE)
@example(TINY_GAP_ENGINE)
def test_lag_and_entropy_production_keep_their_digits_at_every_gap_over_kt(engine):
    nu_i, nu_f, kt_cold, kt_hot, tau = engine
    r = o.run_cycle(o.CycleConfig(o.DriveProtocol(nu_i, nu_f, tau),
                                  o.ThermalParams(kt_cold, kt_hot)))
    eta, lag, sigma = r.efficiency, r.efficiency_lag, r.entropy_production
    # criterion 07's bound, relative to the terms rather than to 1 + them
    assert abs(eta - (r.efficiency_carnot - lag)) <= 1e-9 * (abs(eta) + abs(lag))
    assert abs(sigma - r.mean_heat_hot_pev * lag / kt_cold) <= 1e-9 * abs(sigma)
    baths = cycle._cycle_plan(nu_i, nu_f, kt_cold, kt_hot)[2]
    relent = cycle._drive_relative_entropy(baths, np.array([r.transition_prob]))[0]
    expected = oracles.drive_relative_entropy_decimal(*baths[0].tolist(), r.transition_prob)
    assert relent == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_entropy_production_is_nonnegative_on_the_grid():
    for thermal in (THERMAL_A, THERMAL_B):
        for tau in TAU_GRID:
            assert o.run_cycle(_config(tau, thermal)).entropy_production > -1e-12


def test_sweep_rejects_a_nonpositive_duration_before_any_propagation(monkeypatch):
    def unreachable(*args):
        raise AssertionError("propagated before validating every duration")

    monkeypatch.setattr(propagator, "cayley_klein_product", unreachable)
    with pytest.raises(ValueError, match="drive duration must be positive"):
        o.sweep_tau(_config(100.0), [100.0, 300.0, 0.0])


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["nu_initial_khz", "nu_final_khz", "tau_us"])
def test_drive_protocol_rejects_non_finite_input(field, value, recwarn):
    drive = {"nu_initial_khz": 2.0, "nu_final_khz": 3.6, "tau_us": 100.0, field: value}
    with pytest.raises(ValueError, match="must be positive and finite") as err:
        o.run_cycle(o.CycleConfig(o.DriveProtocol(**drive), THERMAL_B))
    assert "\n" not in str(err.value)
    if field == "tau_us":
        with pytest.raises(ValueError, match="drive duration must be positive and finite"):
            o.sweep_tau(_config(100.0), [100.0, value])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


REPORT_FIELDS = [f.name for f in dataclasses.fields(o.CycleReport)]
CRITERION_10_GRID = np.arange(100.0, 701.0, 10.0).tolist()


@pytest.mark.parametrize(
    "thermal, taus",
    [
        (THERMAL_A, CRITERION_10_GRID),
        (THERMAL_B, CRITERION_10_GRID),
        (THERMAL_B, [420.0, 100.0, 700.0, 235.0, 100.0, 300.0, 260.0]),
    ],
)
def test_batched_sweep_report_equals_the_one_duration_report(thermal, taus):
    reports = o.sweep_tau(_config(100.0, thermal), taus)
    assert [r.tau_us for r in reports] == taus
    for tau, report in zip(taus, reports):
        cycle._cycle_plan.cache_clear()
        single = o.run_cycle(_config(tau, thermal))
        for name in REPORT_FIELDS:
            got, want = getattr(report, name), getattr(single, name)
            if isinstance(want, bool) or name == "tau_us":
                assert got == want, name
            else:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0, nan_ok=True), name


def test_drive_relative_entropy_is_the_decimal_sum_over_populations():
    # the closed form in the baths' gap/kT and polarizations against the
    # Gibbs populations and their logs at 50 digits, to 1e-14 relative
    rng = np.random.default_rng(1308)
    swap_probs = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 200) ** 3])
    for thermal in (THERMAL_A, THERMAL_B, *COLD_CORNER):
        baths = cycle._cycle_plan(2.0, 3.6, thermal.kt_cold_pev, thermal.kt_hot_pev)[2]
        got = cycle._drive_relative_entropy(baths, swap_probs)
        for value, xi in zip(got.tolist(), swap_probs.tolist()):
            expected = oracles.drive_relative_entropy_decimal(*baths[0].tolist(), xi)
            assert value == pytest.approx(expected, rel=1e-14, abs=0.0), (thermal, xi)


def test_sweep_preserves_order_and_matches_single_runs():
    cfg = _config(100.0)
    reports = o.sweep_tau(cfg, [300.0, 100.0])
    assert [r.tau_us for r in reports] == [300.0, 100.0]
    single = o.run_cycle(_config(300.0))
    assert reports[0].mean_work_pev == single.mean_work_pev


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="tau list must be nonempty"):
        o.sweep_tau(_config(100.0), [])


def test_sweep_points_are_the_monte_carlo_sweep_points():
    cfg = _config(100.0)
    taus = [700.0, 100.0, 300.0]
    swept = o.sweep_with_uncertainty(cfg, taus, rel_noise=0.01, n_samples=20, seed=3)
    assert [repr(r) for r in o.sweep_tau(cfg, taus)] == [repr(r) for r, _ in swept]


def _monte_carlo_bits(cfg, taus, width, n_samples, seed):
    """Every report field and spread of a Monte Carlo sweep, floats as their
    bytes, or the message of the error it ends in."""
    try:
        swept = o.sweep_with_uncertainty(cfg, taus, width, n_samples, seed)
    except ValueError as exc:
        return str(exc)
    return [[_bits(v) if isinstance(v, float) else v for v in dataclasses.astuple(report)]
            + [_bits(x) for field in o.MONTE_CARLO_FIELDS for x in spread[field]]
            for report, spread in swept]


def test_kept_point_states_give_every_monte_carlo_call_its_cold_bits():
    # two seeds, two widths (0.3 ends mostly in the counted rank-deficient
    # error), one and 1000 samples: each case cold, then every case again
    # with the point states kept by the first
    cfg = _config(300.0)
    taus = [700.0, 100.0, 300.0]
    cases = [(width, n, seed) for width in (0.01, 0.3) for n in (1, 1000) for seed in (3, 11)]
    cold = {}
    for case in cases:
        cycle._kept_points.cache_clear()
        cold[case] = _monte_carlo_bits(cfg, taus, *case)
    assert sum(isinstance(value, str) for value in cold.values()) >= 2
    assert sum(isinstance(value, list) for value in cold.values()) >= len(cases) // 2
    cycle._kept_points.cache_clear()
    for case in cases + cases[::-1]:
        assert _monte_carlo_bits(cfg, taus, *case) == cold[case], case
    info = cycle._kept_points.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2 * len(cases) - 1, 1, 1)
    # each call gets its own list; the kept reports are frozen
    first, again = (o.sweep_with_uncertainty(cfg, taus, 0.01, 5, 1) for _ in range(2))
    assert first is not again and first == again
    first.clear()
    assert o.sweep_with_uncertainty(cfg, taus, 0.01, 5, 1) == again


def test_sweep_tau_and_run_cycle_keep_no_point_states():
    cfg = _config(300.0)
    o.sweep_tau(cfg, TAU_GRID)
    o.run_cycle(cfg)
    o.sweep_tau(cfg, [300.0])
    info = cycle._kept_points.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    o.cycle_with_uncertainty(cfg, 0.01, 5, 1)
    assert cycle._kept_points.cache_info().currsize == 1
    o.run_cycle(cfg)
    info = cycle._kept_points.cache_info()
    assert (info.hits, info.misses) == (0, 1)


@pytest.mark.parametrize(
    "taus, n_steps, error, message",
    [
        ([], 64, ValueError, "tau list must be nonempty"),
        ([math.nan], 64, ValueError, "drive duration must be positive and finite, got nan us"),
        ([-0.0], 64, ValueError, "drive duration must be positive and finite, got -0.0 us"),
        ([100.0, math.inf], 64, ValueError,
         "drive duration must be positive and finite, got inf us"),
        ([10.0, 700.0], 1, o.ConvergenceError,
         "Magnus product not converged to 1e-08 after 6 doublings from n_steps=1 "
         "(tau_us = 700, 2.52 cycles at nu_final_khz = 3.6)"),
    ],
    ids=["empty", "nan", "negative-zero", "inf", "unconverged"],
)
def test_a_failing_tau_list_keeps_no_point_states(taus, n_steps, error, message):
    cfg = dataclasses.replace(_config(100.0), n_steps=n_steps)
    for _ in range(2):  # fails again: nothing of the first call answers it
        with pytest.raises(error) as exc:
            o.sweep_with_uncertainty(cfg, taus, 0.01, 5, 1)
        assert str(exc.value) == message
        info = cycle._kept_points.cache_info()
        assert info.currsize == 0 and info.hits == 0
    assert cycle._kept_points.cache_info().misses == 2


def test_the_kept_point_states_never_exceed_their_bound():
    bound = cycle._kept_points.cache_info().maxsize
    cfg = _config(100.0)
    taus = (100.0 + 0.01 * np.arange(bound + 5)).tolist()

    def swept(tau):
        return o.sweep_with_uncertainty(cfg, [tau], 0.0, 1, 0)

    for tau in taus[:bound]:
        swept(tau)
    # the first list is used again, so it outlives the next five
    swept(taus[0])
    for tau in taus[bound:]:
        swept(tau)
    assert cycle._kept_points.cache_info().currsize == bound
    misses = cycle._kept_points.cache_info().misses
    swept(taus[0])
    swept(taus[-1])
    assert cycle._kept_points.cache_info().misses == misses
    swept(taus[1])
    info = cycle._kept_points.cache_info()
    assert (info.misses, info.currsize) == (misses + 1, bound)


def test_kept_point_states_are_read_only():
    cfg = _config(300.0)
    taus = np.array([700.0, 100.0, 300.0])
    points, figures, fields, states = cycle._kept_points(cfg, taus.tobytes())
    assert isinstance(points, tuple) and isinstance(states, tuple)
    assert [p.tau_us for p in points] == taus.tolist()
    assert figures.shape == (len(o.MONTE_CARLO_FIELDS), len(taus))
    assert [s.shape for s in states] == [(3, 1), (3, 1), (3, 3), (3, 3)]
    for array in (figures, *fields, *states):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0.0


def test_run_cycle_at_a_swept_duration_is_that_sweeps_report():
    cold = {}
    for thermal in (THERMAL_A, THERMAL_B):
        for tau in TAU_GRID:
            cycle._cycle_plan.cache_clear()
            cold[thermal, tau] = repr(o.run_cycle(_config(tau, thermal)))
    cycle._cycle_plan.cache_clear()
    for thermal in (THERMAL_A, THERMAL_B):
        swept = o.sweep_tau(_config(100.0, thermal), TAU_GRID)
        for tau, report in zip(TAU_GRID, swept):
            assert repr(report) == cold[thermal, tau]
            assert repr(o.run_cycle(_config(tau, thermal))) == cold[thermal, tau]


def test_cycle_plan_is_read_only_and_the_same_at_every_duration():
    plan = cycle._cycle_plan(2.0, 3.6, 6.6, 40.5)
    vectors, parts, (gaps, polarizations), _, equilibria = plan
    assert [len(pair) for pair in plan] == [2] * 5
    for array in (array for pair in plan for array in pair):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert [e.shape for e in equilibria] == [(3, 1), (3, 1)]
    assert cycle._cycle_plan(2.0, 3.6, 6.6, 40.5) is plan
    # H(0) and H(tau) have the same bits at every tau
    hamiltonians = o.endpoint_hamiltonians(o.DriveProtocol(2.0, 3.6, 1.0))
    for tau in (1e-3, 0.37, 100.0, 7e5):
        ends = o.endpoint_hamiltonians(o.DriveProtocol(2.0, 3.6, tau))
        assert [h.tobytes() for h in ends] == [h.tobytes() for h in hamiltonians]
    for h, kt, vec, part in zip(hamiltonians, (6.6, 40.5), vectors, parts):
        assert o.eigensystem(h)[1].tobytes() == vec.tobytes()
        assert (o.gibbs_state(h, kt) - 0.5 * np.eye(2)).tobytes() == part.tobytes()
    # the one polarization, tanh(x/2) of the plan's gap/kT
    assert polarizations.tolist() == [o.polarization(2.0, 6.6), o.polarization(3.6, 40.5)]
    assert gaps.tolist() == [o.PLANCK_PEV_PER_KHZ * 2.0 / 6.6, o.PLANCK_PEV_PER_KHZ * 3.6 / 40.5]


def test_work_sign_flips_once_on_the_hot_grid():
    signs = [o.run_cycle(_config(tau)).mean_work_pev > 0 for tau in TAU_GRID]
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    assert flips == 1
    assert not signs[0] and signs[-1]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_ideal_swap_efficiency_is_one_minus_frequency_ratio():
    assert o.efficiency_closed_form(PROTOCOL, THERMAL_B, 0.0) == pytest.approx(
        oracles.EFFICIENCY_IDEAL_SWAP, abs=1e-12
    )


def test_efficiency_closed_form_equals_work_over_hot_heat():
    rng = np.random.default_rng(5)
    for _ in range(200):
        nu1 = rng.uniform(0.5, 5.0)
        nu2 = nu1 + rng.uniform(0.1, 5.0)
        kt1 = rng.uniform(1.0, 30.0)
        kt2 = kt1 + rng.uniform(0.5, 60.0)
        swap_prob = rng.uniform(0.0, 0.45)
        p = o.DriveProtocol(nu1, nu2, 100.0)
        t = o.ThermalParams(kt1, kt2)
        qh = o.mean_heat_hot_closed_form(p, t, swap_prob)
        expected = o.mean_work_closed_form(p, t, swap_prob) / qh
        # near the equal-polarization pole the ratio is huge, so compare
        # relatively with a small absolute floor
        assert o.efficiency_closed_form(p, t, swap_prob) == pytest.approx(
            expected, rel=1e-10, abs=1e-10
        )


def test_efficiency_closed_form_decreases_with_swap_probability():
    vals = [
        o.efficiency_closed_form(PROTOCOL, THERMAL_B, s)
        for s in (0.0, 0.03, 0.06, 0.09, 0.12)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("engine", [(2.0, 3.6, 6.6, 40.5, 300.0), TINY_GAP_ENGINE])
def test_efficiency_closed_form_is_the_reports_efficiency(engine):
    nu_i, nu_f, kt_cold, kt_hot, tau = engine
    cfg = o.CycleConfig(o.DriveProtocol(nu_i, nu_f, tau), o.ThermalParams(kt_cold, kt_hot))
    r = o.run_cycle(cfg)
    eta = o.efficiency_closed_form(cfg.protocol, cfg.thermal, r.transition_prob)
    assert eta == pytest.approx(r.efficiency, rel=1e-9, abs=0.0)
    assert r.efficiency + r.efficiency_lag == pytest.approx(r.efficiency_carnot, rel=1e-9)


def test_efficiency_closed_form_rejects_equal_polarizations():
    # hot and cold polarizations coincide when kT2/kT1 = nu2/nu1
    t = o.ThermalParams(6.6, 6.6 * 1.8)
    with pytest.raises(ValueError, match="efficiency undefined"):
        o.efficiency_closed_form(PROTOCOL, t, 0.1)


@pytest.mark.parametrize("transition_prob", [-0.2, 1.5, math.nan])
@pytest.mark.parametrize("closed_form", [o.efficiency_closed_form, o.mean_work_closed_form,
                                         o.mean_heat_hot_closed_form,
                                         o.mean_heat_cold_closed_form],
                         ids=lambda f: f.__name__)
def test_a_closed_form_rejects_a_transition_probability_outside_0_1(closed_form,
                                                                     transition_prob):
    # mean_work_closed_form gave -13.43 at 1.5, where the TPM distributions raise
    message = f"transition probability must lie in [0, 1], got {transition_prob}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        closed_form(PROTOCOL, THERMAL_B, transition_prob)


def test_extraction_bound_frozen_values():
    assert oracles.extraction_bound(PROTOCOL, THERMAL_A) == pytest.approx(
        oracles.EXTRACTION_BOUND_OPTION_A, abs=1e-12
    )
    assert oracles.extraction_bound(PROTOCOL, THERMAL_B) == pytest.approx(
        oracles.EXTRACTION_BOUND_OPTION_B, abs=1e-12
    )


def test_extraction_bound_is_the_work_sign_root():
    for thermal in (THERMAL_A, THERMAL_B):
        bound = oracles.extraction_bound(PROTOCOL, thermal)
        assert o.mean_work_closed_form(PROTOCOL, thermal, bound - 1e-6) > 0
        assert o.mean_work_closed_form(PROTOCOL, thermal, bound + 1e-6) < 0
        assert o.mean_work_closed_form(PROTOCOL, thermal, bound) == pytest.approx(
            0.0, abs=1e-12
        )


def test_extraction_bound_vanishes_without_a_temperature_gradient():
    assert oracles.extraction_bound(PROTOCOL, o.ThermalParams(6.6, 6.6)) == 0.0


def test_extraction_bound_vanishes_when_compression_outruns_the_baths():
    # nu2/nu1 beyond kT2/kT1 leaves no positive-work window even without swaps
    steep = o.DriveProtocol(2.0, 14.0, 100.0)
    assert oracles.extraction_bound(steep, THERMAL_A) == 0.0


def test_extraction_threshold_temperature_rises_with_cold_bath():
    # at a fixed swap probability, the minimum hot-bath temperature that still
    # permits extraction must increase monotonically with the cold-bath
    # temperature
    swap_prob = 0.10
    thresholds = []
    hot_grid = np.linspace(10.0, 200.0, 2000)
    for kt_cold in (3.0, 4.0, 5.0, 6.0, 7.0):
        feasible = [
            kt_hot
            for kt_hot in hot_grid
            if kt_hot > kt_cold
            and oracles.extraction_bound(PROTOCOL, o.ThermalParams(kt_cold, kt_hot))
            > swap_prob
        ]
        thresholds.append(min(feasible))
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


@given(kts, st.floats(min_value=1.5, max_value=10.0), engine_swap_probs)
@settings(max_examples=60)
def test_efficiency_chain_never_exceeds_carnot(kt1, ratio, swap_prob):
    kt2 = kt1 * ratio
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    t = o.ThermalParams(kt1, kt2)
    if oracles.extraction_bound(p, t) <= swap_prob:  # not an engine there; skip
        return
    eta = o.efficiency_closed_form(p, t, swap_prob)
    eta_otto = 1.0 - 2.0 / 3.6
    eta_carnot = 1.0 - kt1 / kt2
    assert eta <= eta_otto + 1e-12
    assert eta_otto <= eta_carnot + 1e-12 or o.mean_work_closed_form(p, t, 0.0) <= 0
    assert eta <= eta_carnot + 1e-12


@given(kts, st.floats(min_value=1.05, max_value=10.0), st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60)
def test_drive_entropy_production_is_nonnegative(kt1, ratio, swap_prob):
    t = o.ThermalParams(kt1, kt1 * ratio)
    qh = o.mean_heat_hot_closed_form(PROTOCOL, t, swap_prob)
    qc = o.mean_heat_cold_closed_form(PROTOCOL, t, swap_prob)
    assert o.entropy_production_drive(qc, qh, t) >= -1e-12


def test_entropy_production_vanishes_in_the_reversible_corner():
    # no swaps with matched polarizations: no gradient across the strokes
    t = o.ThermalParams(6.6, 6.6 * 1.8)
    qh = o.mean_heat_hot_closed_form(PROTOCOL, t, 0.0)
    qc = o.mean_heat_cold_closed_form(PROTOCOL, t, 0.0)
    assert o.entropy_production_drive(qc, qh, t) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# relative entropy and the lag
# ---------------------------------------------------------------------------

def _relative_entropy(a, b):
    """S(a||b) of two 2x2 states through the Monte Carlo's Bloch core."""
    return float(cycle._relative_entropy_batch(
        spin._bloch(np.asarray(a)[None]), spin._bloch(np.asarray(b)[None]))[0])


def test_relative_entropy_of_a_state_with_itself_is_zero():
    rho = o.gibbs_state(o.drive_hamiltonian(0.0, PROTOCOL), 6.6)
    assert _relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_frozen_value():
    a = np.eye(2, dtype=complex) / 2
    b = np.diag([0.3, 0.7]).astype(complex)
    assert _relative_entropy(a, b) == pytest.approx(
        oracles.REL_ENTROPY_HALF_VS_37, abs=1e-12
    )


def test_relative_entropy_matches_matrix_logarithm_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        u1, u2 = oracles.haar_unitary(rng), oracles.haar_unitary(rng)
        a = u1 @ np.diag(rng.dirichlet([2.0, 2.0])) @ u1.conj().T
        b = u2 @ np.diag(rng.dirichlet([2.0, 2.0])) @ u2.conj().T
        assert _relative_entropy(a, b) == pytest.approx(
            oracles.relative_entropy_logm(a, b), abs=1e-10
        )


def test_relative_entropy_is_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(25):
        u1, u2 = oracles.haar_unitary(rng), oracles.haar_unitary(rng)
        a = u1 @ np.diag(rng.dirichlet([1.5, 1.5])) @ u1.conj().T
        b = u2 @ np.diag(rng.dirichlet([1.5, 1.5])) @ u2.conj().T
        assert _relative_entropy(a, b) >= -1e-12


def test_relative_entropy_of_a_singular_reference_is_infinite():
    # the Monte Carlo counts such samples into its one-line error
    pure = np.array([[1.0, 0.0], [0.0, 0.0]], complex)
    assert _relative_entropy(np.eye(2) / 2, pure) == math.inf


def test_relative_entropy_is_jointly_convex():
    rng = np.random.default_rng(29)
    for _ in range(10):
        lam = rng.uniform(0.1, 0.9)
        states = []
        for _ in range(4):
            u = oracles.haar_unitary(rng)
            states.append(u @ np.diag(rng.dirichlet([3.0, 3.0])) @ u.conj().T)
        a1, b1, a2, b2 = states
        mixed = _relative_entropy(
            lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2
        )
        separate = lam * _relative_entropy(a1, b1) + (1 - lam) * _relative_entropy(a2, b2)
        assert mixed <= separate + 1e-10


def test_lag_of_a_do_nothing_cycle_is_the_carnot_ceiling():
    # no drive, same gap both ends: the only "heat" is direct equilibration,
    # all of the ceiling is lost to the lag, and the engine extracts nothing.
    h = -0.5 * o.PLANCK_PEV_PER_KHZ * 2.0 * o.PAULI_X
    cold = o.gibbs_state(h, 6.6)
    hot = o.gibbs_state(h, 40.5)
    qh = float(np.real(np.trace(h @ (hot - cold))))
    lag = oracles.efficiency_lag(cold, hot, hot, cold, qh, 1.0 / 6.6)
    assert lag == pytest.approx(1.0 - 6.6 / 40.5, abs=1e-12)


def test_perfect_swapless_transport_recovers_the_ideal_efficiency():
    # transport each thermal population unchanged across the ramp (a swapless
    # stroke) and feed the lag identity with the resulting endpoint states
    h_i, h_f = o.endpoint_hamiltonians(PROTOCOL)
    _, v_i = o.eigensystem(h_i)
    _, v_f = o.eigensystem(h_f)
    p = o.thermal_populations(2.0, 6.6)
    q = o.thermal_populations(3.6, 40.5)
    after_expansion = v_f @ np.diag(p) @ v_f.conj().T
    after_compression = v_i @ np.diag(q) @ v_i.conj().T
    qh = o.mean_heat_hot_closed_form(PROTOCOL, THERMAL_B, 0.0)
    lag = oracles.efficiency_lag(
        after_expansion,
        o.gibbs_state(h_f, 40.5),
        after_compression,
        o.gibbs_state(h_i, 6.6),
        qh,
        1.0 / 6.6,
    )
    eta = oracles.CARNOT_OPTION_B - lag
    assert eta == pytest.approx(oracles.EFFICIENCY_IDEAL_SWAP, abs=1e-10)


def test_lag_rejects_zero_hot_heat():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        oracles.efficiency_lag(rho, rho, rho, rho, 0.0, 1.0 / 6.6)


@pytest.mark.parametrize("thermal", [THERMAL_A, THERMAL_B], ids=["hot-A", "hot-B"])
def test_report_lag_is_the_four_state_lag_of_the_drive_outputs(thermal):
    # the report's closed form in xi against the paper's definition on the
    # states the drive makes: rho_exp = U rho_cold U^dagger and
    # rho_comp = U^dagger rho_hot U, each relative entropy by a matrix log;
    # the worst case measured on this grid was 1.0e-13 relative
    h_i, h_f = o.endpoint_hamiltonians(PROTOCOL)
    cold = oracles.gibbs_state_eigh(h_i, thermal.kt_cold_pev)
    hot = oracles.gibbs_state_eigh(h_f, thermal.kt_hot_pev)
    reports = o.sweep_tau(o.CycleConfig(PROTOCOL, thermal), o.DEFAULT_TAU_GRID_US)
    for report in reports:
        u = o.evolve_unitary(dataclasses.replace(PROTOCOL, tau_us=report.tau_us)).matrix
        after_expansion, after_compression = u @ cold @ u.conj().T, u.conj().T @ hot @ u
        heat_hot = np.trace(h_f @ (hot - after_expansion)).real
        lag = oracles.efficiency_lag(after_expansion, hot, after_compression, cold,
                                     heat_hot, 1.0 / thermal.kt_cold_pev)
        assert report.efficiency_lag == pytest.approx(lag, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "a, b",
    [(np.full((2, 2), np.nan), np.eye(2) / 2), (np.eye(2) / 2, np.full((2, 2), np.nan)),
     (np.diag([np.inf, 0.0]), np.eye(2) / 2), (np.eye(2) / 2, np.diag([0.5, -np.inf]))],
    ids=["nan-state", "nan-reference", "infinite-state", "infinite-reference"],
)
def test_lag_oracle_rejects_non_finite_states(a, b):
    rho, message = np.eye(2) / 2, "relative entropy needs states with finite entries"
    for call in (lambda: oracles.efficiency_lag(a, b, rho, rho, 1.0, 1.0 / 6.6),
                 lambda: oracles.efficiency_lag(rho, rho, a, b, 1.0, 1.0 / 6.6)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Monte Carlo uncertainty
# ---------------------------------------------------------------------------

def test_monte_carlo_zero_noise_reproduces_point_estimates_exactly():
    cfg = _config(300.0)
    report, estimates = o.cycle_with_uncertainty(cfg, rel_noise=0.0, n_samples=64, seed=1)
    for field in o.MONTE_CARLO_FIELDS:
        est = estimates[field]
        assert est.mean == getattr(report, field)
        assert est.stddev == 0.0


@st.composite
def zero_noise_sweeps(draw):
    """An engine of :func:`engines` with 1-5 durations of its drive range,
    and any sample count and seed."""
    nu_i, nu_f, kt_cold, kt_hot, tau = draw(engines())
    longest = min(3000.0, 20.0 / (nu_f * 1e-3))
    taus = [tau, *draw(st.lists(_log_uniform(1.0, longest), max_size=4))]
    return (nu_i, nu_f, kt_cold, kt_hot), taus, draw(st.integers(1, 10**6)), draw(
        st.integers(0, 2**32))


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(zero_noise_sweeps())
@example(((2.0, 3.6, 1e6, 6136363.6), [100.0], 1000, 0))  # the hot-bath config
@example(((2.0, 3.6, 1e300, 1e300), [100.0, 300.0], 7, 3))  # beta_c Q_h underflows: NaN lag
def test_zero_noise_spreads_are_the_point_values_on_every_engine(sweep):
    (nu_i, nu_f, kt_cold, kt_hot), taus, n_samples, seed = sweep
    cfg = o.CycleConfig(o.DriveProtocol(nu_i, nu_f, taus[0]), o.ThermalParams(kt_cold, kt_hot))
    with np.errstate(all="ignore"):  # the 1e300 baths' lag is 0/0, which warns
        swept = o.sweep_with_uncertainty(cfg, taus, 0.0, n_samples, seed)
    for report, estimates in swept:
        for field in o.MONTE_CARLO_FIELDS:
            # bit for bit: a NaN field has a NaN mean, a -0.0 field a -0.0 mean
            assert _bits(estimates[field].mean) == _bits(getattr(report, field)), field
            assert _bits(estimates[field].stddev) == _bits(0.0), field


def test_monte_carlo_is_deterministic_for_a_fixed_seed():
    cfg = _config(300.0)
    a = o.cycle_with_uncertainty(cfg, rel_noise=0.01, n_samples=100, seed=42)[1]
    b = o.cycle_with_uncertainty(cfg, rel_noise=0.01, n_samples=100, seed=42)[1]
    assert a == b
    c = o.cycle_with_uncertainty(cfg, rel_noise=0.01, n_samples=100, seed=43)[1]
    assert any(a[f].mean != c[f].mean for f in o.MONTE_CARLO_FIELDS)


def test_monte_carlo_spread_scales_linearly_with_noise_width():
    cfg = _config(300.0)
    lo = o.cycle_with_uncertainty(cfg, rel_noise=0.005, n_samples=400, seed=7)[1]
    hi = o.cycle_with_uncertainty(cfg, rel_noise=0.01, n_samples=400, seed=7)[1]
    ratio = hi["mean_work_pev"].stddev / lo["mean_work_pev"].stddev
    assert ratio == pytest.approx(2.0, abs=0.3)


def test_monte_carlo_mean_tracks_the_point_estimate():
    cfg = _config(700.0)
    report, estimates = o.cycle_with_uncertainty(cfg, rel_noise=0.01, n_samples=500, seed=3)
    est = estimates["mean_work_pev"]
    assert est.mean == pytest.approx(report.mean_work_pev, abs=5 * est.stddev / math.sqrt(500) + 1e-3)
    assert est.stddev > 0


def test_bloch_repair_matches_the_eigendecomposition_route():
    from ottospin.cycle import _repair_batch

    rng = np.random.default_rng(11)
    n = 600
    t = rng.uniform(-1.0, 1.5, n)
    axes = rng.normal(size=(n, 3))
    r = axes / np.linalg.norm(axes, axis=1, keepdims=True) * rng.uniform(0.0, 2.0, (n, 1))
    pauli = np.stack([o.PAULI_X, o.PAULI_Y, o.PAULI_Z])
    herm = 0.5 * (t[:, None, None] * o.IDENTITY + np.einsum("ni,ijk->njk", r, pauli))
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    matrices = herm + 0.5 * (g - np.conj(np.swapaxes(g, 1, 2)))
    length = np.linalg.norm(r, axis=1)
    # mixed (|r| <= t), clipped to pure (|r| > t, t + |r| > 0), nothing positive
    branches = (length <= t, (length > t) & (t + length > 0.0), t + length <= 0.0)
    assert all(branch.sum() >= 50 for branch in branches)
    # the Hermitian part (t I + r . sigma)/2 of each matrix, and back from a
    # repaired Bloch vector; scaled by 1e200, |r|^2 would overflow a double
    for scale in (1.0, 1e200):
        scaled = scale * matrices
        t_in = np.einsum("njj->n", scaled).real
        r_in = np.einsum("ijk,nkj->in", pauli, scaled).real  # component-major, (3, n)
        repaired = 0.5 * (o.IDENTITY + np.einsum("in,ijk->njk", _repair_batch(t_in, r_in), pauli))
        assert np.isfinite(repaired).all()
        for got, m in zip(repaired, scaled):
            np.testing.assert_allclose(got, oracles.repair_state_eigh(m), rtol=0.0, atol=1e-14)


def _u64(array):
    return np.asarray(array, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 37, 5000])
@pytest.mark.parametrize("width", [0.01, 0.3, 3.0, 1e200])
def test_in_place_monte_carlo_math_is_the_allocating_math_bit_for_bit(width, n):
    # the repairs of one tau's samples, as the Monte Carlo forms them,
    # against the allocating reference of tests/oracles.py
    cfg = _config(300.0)
    states = cycle._kept_points(cfg, np.array([300.0]).tobytes())[3]
    draws = cycle._draw_noise(7, width, n)
    trace, shift = 1.0 + draws[:, 0], draws[:, 1:]
    branches = np.zeros(3, dtype=int)
    for k in range(4):
        t, r = trace[k], states[k] + shift[k]
        before = _u64(t).copy(), _u64(r).copy()
        got = cycle._repair_batch(t, r)
        assert np.array_equal(_u64(t), before[0]) and np.array_equal(_u64(r), before[1])
        assert np.array_equal(_u64(got), _u64(oracles.repair_batch_allocating(t, r))), k
        # the branches on (t, r) scaled to at most 1, where |r| cannot overflow
        size = np.maximum(np.abs(t), np.abs(r).max(axis=0))
        t_unit, length = t / size, np.linalg.norm(r / size, axis=0)
        branches += [(length <= t_unit).sum(), ((length > t_unit) & (t_unit + length > 0.0)).sum(),
                     (t_unit + length <= 0.0).sum()]
    if n == 5000:
        # each branch is reached where the noise is not small against the states
        assert branches[0] > 0
        if width > 0.01:
            assert (branches > 0).all(), branches


HOT_BATHS = o.ThermalParams(1000000.0, 6136363.6)


@pytest.mark.parametrize("thermal, width", [
    (HOT_BATHS, 0.01), (HOT_BATHS, 1e-6), (THERMAL_B, 0.01), (THERMAL_B, 0.3),
    (COLD_CORNER[1], 0.01),
], ids=["hot-baths-0.01", "hot-baths-1e-6", "default-0.01", "default-0.3", "cold-bath-0.01"])
def test_monte_carlo_relative_entropies_match_a_decimal_oracle(thermal, width):
    # the Monte Carlo's two pairs of one tau's repaired samples, and a
    # reference that is maximally mixed (s = 0) for every third sample,
    # against 50 digits of the same Bloch pairs; the polarizations of the
    # hot baths are ~1e-6, where logarithms of eigenvalues lose digits
    cfg = _config(300.0, thermal)
    states = cycle._kept_points(cfg, np.array([300.0]).tobytes())[3]
    draws = cycle._draw_noise(1, width, 300)
    trace, shift = 1.0 + draws[:, 0], draws[:, 1:]
    cold_s, hot_s, exp_s, comp_s = (
        cycle._repair_batch(trace[k], states[k] + shift[k]) for k in range(4))
    mixed = np.where(np.arange(300) % 3 == 0, 0.0, 1.0) * hot_s
    infinite = pure = 0
    for r, s in [(exp_s, hot_s), (comp_s, cold_s), (exp_s, mixed)]:
        before = _u64(r).copy(), _u64(s).copy()
        with np.errstate(all="raise"):
            got = cycle._relative_entropy_batch(r, s)
        assert np.array_equal(_u64(r), before[0]) and np.array_equal(_u64(s), before[1])
        expected = np.array([oracles.relative_entropy_decimal(a, b) for a, b in zip(r.T, s.T)])
        finite = np.isfinite(expected)
        assert np.array_equal(np.isinf(got), ~finite)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-12, atol=0.0)
        infinite += (~finite).sum()
        pure += (np.linalg.norm(r, axis=0) > 1.0 - 1e-15).sum()
    # singular references and pure states are reached where the noise is
    # not small against the states
    if (thermal is THERMAL_B and width == 0.3) or thermal is COLD_CORNER[1]:
        assert infinite > 0 and pure > 0, (infinite, pure)


@pytest.mark.parametrize("mu_minus, infinite", [(1.001e-12, False), (0.999e-12, True)])
def test_the_relative_entropy_is_infinite_below_a_reference_eigenvalue_of_1e_12(
        mu_minus, infinite):
    r = np.array([[0.6], [0.0], [0.0]])
    s = np.array([[0.0], [0.0], [1.0 - 2.0 * mu_minus]])
    assert 0.5 * (1.0 - s[2, 0]) == pytest.approx(mu_minus, rel=1e-4)
    got = cycle._relative_entropy_batch(r, s)[0]
    assert math.isinf(got) == infinite
    assert math.isinf(oracles.relative_entropy_decimal(r[:, 0], s[:, 0])) == infinite


def test_the_relative_entropy_of_a_pure_state_to_i_over_2_is_ln_2():
    # |r| = 1 up to rounding, either side of it
    r = np.array([[1.0, 0.6, 0.6], [0.0, 0.8, 0.8 + 2e-16], [0.0, 0.0, 0.0]])
    with np.errstate(all="raise"):
        got = cycle._relative_entropy_batch(r, np.zeros((3, 1)))
    np.testing.assert_allclose(got, math.log(2.0), rtol=1e-14, atol=0.0)


def test_component_major_monte_carlo_matches_the_row_major_route(monkeypatch):
    # the same sweeps with the repair on row-major (n, 3) stacks, each call
    # also checked against the component-major result; width 0.3 reaches
    # every repair branch and mostly ends in the counted rank-deficient
    # error, which must match too
    repair = cycle._repair_batch
    branches = np.zeros(3, dtype=int)

    def repair_rows(t, r):
        length = np.linalg.norm(r, axis=0)
        branches[:] += [(length <= t).sum(), ((length > t) & (t + length > 0.0)).sum(),
                        (t + length <= 0.0).sum()]
        rows = oracles.repair_batch_rows(t, np.ascontiguousarray(r.T)).T
        np.testing.assert_allclose(repair(t, r), rows, rtol=1e-14, atol=0.0)
        return rows

    def outcome(cfg, width, n, seed):
        try:
            swept = o.sweep_with_uncertainty(cfg, (100.0, 300.0, 700.0), width, n, seed)
        except ValueError as exc:
            return str(exc)
        return [[value for field in o.MONTE_CARLO_FIELDS for value in spread[field]]
                for _, spread in swept]

    cases = [(_config(300.0, thermal), width, n, seed)
             for thermal in (THERMAL_A, THERMAL_B) for width in (0.01, 0.3)
             for n in (1, 2, 37, 1000) for seed in (0, 1, 5)]
    got = [outcome(*case) for case in cases]
    monkeypatch.setattr(cycle, "_repair_batch", repair_rows)
    expected = [outcome(*case) for case in cases]

    assert (branches > 0).all(), branches
    # every 0.01 case gives spreads, and so does some 0.3 case
    assert sum(isinstance(e, list) for e in expected) > len(cases) // 2
    for case, value, reference in zip(cases, got, expected):
        if isinstance(reference, str):
            assert value == reference, case
        else:
            assert value == [pytest.approx(row, rel=1e-14) for row in reference], case


def _oracle_spreads(noise, taus):
    """Sample mean and stddev of each MONTE_CARLO_FIELDS entry at each tau,
    as {field: (mean, stddev)}, from the given per-sample noise, with
    eigendecomposition repair and matrix-log relative entropy."""
    h_cold, h_hot = o.endpoint_hamiltonians(PROTOCOL)
    cold = o.gibbs_state(h_cold, THERMAL_B.kt_cold_pev)
    hot = o.gibbs_state(h_hot, THERMAL_B.kt_hot_pev)
    expected = {}
    for tau in taus:
        cfg = _config(tau)
        u = o.evolve_unitary(cfg.protocol, cfg.n_steps).matrix
        clean = (cold, hot, u @ cold @ u.conj().T, u.conj().T @ hot @ u)
        rows = []
        for sample in noise:
            c, h, e, k = (oracles.repair_state_eigh(s + d) for s, d in zip(clean, sample))
            heat_hot = np.trace(h_hot @ (h - e)).real
            heat_cold = np.trace(h_cold @ (c - k)).real
            work = heat_hot + heat_cold
            relent = oracles.relative_entropy_logm(e, h) + oracles.relative_entropy_logm(k, c)
            period = 2.0 * tau + cfg.t_thermalization_us
            rows.append((
                work, heat_hot, heat_cold, work / heat_hot,
                relent * THERMAL_B.kt_cold_pev / heat_hot,
                -heat_cold / THERMAL_B.kt_cold_pev - heat_hot / THERMAL_B.kt_hot_pev,
                1000.0 * work / period,
            ))
        expected[tau] = dict(zip(
            o.MONTE_CARLO_FIELDS,
            zip(np.mean(rows, axis=0), np.std(rows, axis=0, ddof=1)),
        ))
    return expected


def test_monte_carlo_draws_follow_the_documented_stream_layout():
    # every tau of a sweep sees the same draws, laid out as the docstring says
    seed, n, width, taus = 5, 40, 0.01, (100.0, 300.0)
    expected = _oracle_spreads(oracles.monte_carlo_noise(seed, n, width), taus)

    swept = o.sweep_with_uncertainty(_config(700.0), taus, width, n, seed)
    for tau, (report, spread) in zip(taus, swept):
        single = o.cycle_with_uncertainty(_config(tau), width, n, seed)[1]
        assert report.tau_us == tau
        for field in o.MONTE_CARLO_FIELDS:
            mean, stddev = expected[tau][field]
            for estimate in (spread[field], single[field]):
                assert estimate.mean == pytest.approx(mean, rel=1e-12)
                assert estimate.stddev == pytest.approx(stddev, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**40])
def test_monte_carlo_sample_draws_do_not_depend_on_the_sample_count(seed):
    # a 10-sample run uses exactly the first 10 samples of a 40-sample draw
    width, tau = 0.01, 300.0
    noise = oracles.monte_carlo_noise(seed, 40, width)[:10]
    expected = _oracle_spreads(noise, (tau,))[tau]
    spread = o.cycle_with_uncertainty(_config(tau), width, n_samples=10, seed=seed)[1]
    for field in o.MONTE_CARLO_FIELDS:
        mean, stddev = expected[field]
        assert spread[field].mean == pytest.approx(mean, rel=1e-12)
        assert spread[field].stddev == pytest.approx(stddev, rel=1e-12)


def test_monte_carlo_spreads_keep_the_law_of_the_eight_draw_stream():
    # The four draws per state have the law of the Hermitian part of eight
    # complex-element draws, whatever their layout.  Each spread of a
    # heat-linear field is held to the eight-draw spread (independent seed)
    # within 4 standard errors of the difference of two sample stddevs,
    # 4 * sqrt(2) * s / sqrt(2 (n - 1)), about 2.8 % at n = 20000; each mean
    # within 4 standard errors of the difference of two means.
    n, width, tau = 20000, 0.01, 300.0
    cfg = _config(tau)
    spread = o.cycle_with_uncertainty(cfg, width, n, seed=2026)[1]

    h_cold, h_hot = o.endpoint_hamiltonians(cfg.protocol)
    cold = o.gibbs_state(h_cold, THERMAL_B.kt_cold_pev)
    hot = o.gibbs_state(h_hot, THERMAL_B.kt_hot_pev)
    u = o.evolve_unitary(cfg.protocol, cfg.n_steps).matrix
    states = (cold, hot, u @ cold @ u.conj().T, u.conj().T @ hot @ u)
    heat_hot, heat_cold = oracles.monte_carlo_heats_eight_draws(
        2027, n, width, states, h_cold, h_hot
    )
    work = heat_hot + heat_cold
    period = 2.0 * tau + cfg.t_thermalization_us
    reference = {
        "mean_work_pev": work,
        "mean_heat_hot_pev": heat_hot,
        "mean_heat_cold_pev": heat_cold,
        "entropy_production": (-heat_cold / THERMAL_B.kt_cold_pev
                               - heat_hot / THERMAL_B.kt_hot_pev),
        "power_pev_per_ms": 1000.0 * work / period,
    }
    for field, values in reference.items():
        stddev = np.std(values, ddof=1)
        assert abs(spread[field].stddev - stddev) <= 4.0 * stddev / math.sqrt(n - 1), field
        mean_se = math.sqrt((spread[field].stddev**2 + stddev**2) / n)
        assert abs(spread[field].mean - np.mean(values)) <= 4.0 * mean_se, field
    # the ratio spreads are heavy-tailed where the mean hot heat is a few
    # spreads from zero; only their finiteness is required
    for field in ("efficiency", "efficiency_lag"):
        assert math.isfinite(spread[field].mean) and math.isfinite(spread[field].stddev)


@pytest.mark.parametrize("n_samples", [1, 2, 1000])
def test_monte_carlo_spreads_are_each_fields_mean_and_stddev(monkeypatch, n_samples):
    # the one (7, n) reduction against np.mean and np.std of each field's
    # samples, bit for bit
    captured = []
    exact = cycle._figures_of_merit

    def recorded(*args):
        captured.append(exact(*args))
        return captured[-1]

    monkeypatch.setattr(cycle, "_figures_of_merit", recorded)
    swept = o.sweep_with_uncertainty(_config(100.0), TAU_GRID, 0.01, n_samples, 11)
    # the first call gives the point reports, then one call per tau
    assert len(captured) == 1 + len(TAU_GRID)
    for (_, spread), samples in zip(swept, captured[1:]):
        assert list(spread) == list(o.MONTE_CARLO_FIELDS)
        assert samples.shape == (len(o.MONTE_CARLO_FIELDS), n_samples)
        for name, values in zip(o.MONTE_CARLO_FIELDS, samples, strict=True):
            stddev = float(np.std(values, ddof=1)) if n_samples > 1 else 0.0
            assert repr(spread[name]) == repr(
                o.UncertaintyEstimate(float(np.mean(values)), stddev)
            )


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("width", [0.01, 1e-310, 5e-324, 1e300])
def test_monte_carlo_draws_are_the_normal_stream_bit_for_bit(width, n):
    # signed zeros included: at 5e-324 most products w z underflow to zero
    rng = np.random.default_rng(np.random.SeedSequence(3))
    expected = np.moveaxis(rng.normal(0.0, math.sqrt(2) * width, (n, 4, 4)), 0, -1)
    draws = cycle._draw_noise(3, width, n)
    assert draws.shape == (4, 4, n) and draws.flags.c_contiguous
    assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))


def test_an_overflowing_noise_width_is_the_counted_error_under_raising_errstate():
    with np.errstate(over="raise"), pytest.raises(
        ValueError, match=r"^Monte Carlo noise overflows at noise width 1e\+308$"
    ):
        o.cycle_with_uncertainty(_config(300.0), 1e308, 100, 0)


@pytest.mark.parametrize("n_samples", [1000, 5000])
@pytest.mark.parametrize("thermal", [THERMAL_A, THERMAL_B], ids=["A", "B"])
def test_monte_carlo_sweep_spreads_are_the_one_duration_spreads_exactly(thermal, n_samples):
    swept = o.sweep_with_uncertainty(_config(100.0, thermal), TAU_GRID, 0.01, n_samples, 4)
    for tau, (_, spread) in zip(TAU_GRID, swept):
        single = o.cycle_with_uncertainty(_config(tau, thermal), 0.01, n_samples, 4)[1]
        assert spread == single, tau


def test_monte_carlo_peak_memory_does_not_grow_with_the_duration_count():
    # numpy reports its array buffers to tracemalloc; durations run one at a
    # time, so ten of them peak where one does
    def peak(taus):
        o.sweep_with_uncertainty(_config(100.0), taus, 0.01, 20000, 1)  # warm caches
        tracemalloc.start()
        try:
            o.sweep_with_uncertainty(_config(100.0), taus, 0.01, 20000, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, ten = peak(TAU_GRID[:1]), peak(TAU_GRID)
    assert one > 4 * 4 * 20000 * 8
    assert ten <= 1.1 * one, (one, ten)


def test_monte_carlo_validates_arguments():
    cfg = _config(300.0)
    for width in (-0.01, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            o.cycle_with_uncertainty(cfg, rel_noise=width)
    with pytest.raises(ValueError):
        o.cycle_with_uncertainty(cfg, n_samples=0)[1]


def test_cycle_config_validation():
    with pytest.raises(ValueError):
        o.CycleConfig(PROTOCOL, THERMAL_B, n_steps=0)
    with pytest.raises(ValueError):
        o.CycleConfig(PROTOCOL, THERMAL_B, t_thermalization_us=-1.0)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: o.sweep_with_uncertainty(o.CycleConfig(PROTOCOL, THERMAL_B), []),
      "tau list must be nonempty"),
     (lambda: o.CycleConfig(PROTOCOL, THERMAL_B, t_thermalization_us=math.nan),
      "thermalization time must be positive"),
     (lambda: o.CycleConfig(PROTOCOL, THERMAL_B, n_steps=2.5),
      "n_steps must be an integer >= 1, got 2.5")],
    ids=["empty-tau-list", "nan-thermalization", "fractional-step-count"],
)
def test_a_rejected_cycle_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_the_thermalization_line_sits_at_zero():
    o.CycleConfig(PROTOCOL, THERMAL_B, t_thermalization_us=5e-324)
    with pytest.raises(ValueError) as exc:
        o.CycleConfig(PROTOCOL, THERMAL_B, t_thermalization_us=0.0)
    assert str(exc.value) == "thermalization time must be positive"


def test_an_infinite_stroke_time_is_rejected():
    # the cycle period would be infinite and every power a false 0
    with pytest.raises(ValueError) as exc:
        o.CycleConfig(PROTOCOL, THERMAL_B, t_thermalization_us=math.inf)
    assert str(exc.value) == "thermalization time must be finite"


def test_extraction_bound_is_zero_where_both_polarizations_underflow():
    # gaps of ~1e-323 peV against kT = 100: both polarizations round to 0,
    # so the closed form's denominator is 0 although the ratio is in range
    assert oracles.extraction_bound(o.DriveProtocol(5e-324, 1e-323, 1.0),
                                    o.ThermalParams(100.0, 200.0)) == 0.0
