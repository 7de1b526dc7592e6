"""Cycle-level quantities: means, efficiency, lag, entropy production.

Two themes run through this module.  First, every quantity that the library
computes from simulated states is rechecked against closed-form expressions
fed by nothing but populations.  Second, quantities with two independent
physical routes (efficiency vs. the lag identity, bath bookkeeping vs.
relative-entropy production) are required to agree without sharing code.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ottospin as o
from ottospin import cycle, propagator
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
    # own product instead.
    for thermal in (THERMAL_A, THERMAL_B):
        for tau in TAU_GRID:
            cfg = _config(tau, thermal)
            u_c = o.evolve_unitary(
                o.DriveProtocol(2.0, 3.6, tau, o.Phase.COMPRESSION)
            ).matrix
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


def test_power_is_work_over_total_cycle_duration():
    r = o.run_cycle(_config(700.0))
    expected = 1000.0 * r.mean_work_pev / (2 * 700.0 + 7000.0)
    assert r.power_pev_per_ms == pytest.approx(expected, abs=1e-12)


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
        single = o.run_cycle(_config(tau, thermal))
        for name in REPORT_FIELDS:
            got, want = getattr(report, name), getattr(single, name)
            if isinstance(want, bool) or name == "tau_us":
                assert got == want, name
            else:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0, nan_ok=True), name


def test_stacked_relative_entropy_rounds_as_one_pair_at_a_time():
    rng = np.random.default_rng(1308)
    swap_probs = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 200) ** 3])
    for thermal in (THERMAL_A, THERMAL_B, *COLD_CORNER):
        log_p, log_q = cycle._gibbs_log_populations(PROTOCOL, thermal)
        stacked = cycle._drive_relative_entropy((log_p, log_q), swap_probs)
        expected = [
            oracles.drive_relative_entropy_pairwise(log_p, log_q, xi)
            for xi in swap_probs.tolist()
        ]
        assert stacked.tolist() == expected


def test_sweep_preserves_order_and_matches_single_runs():
    cfg = _config(100.0)
    reports = o.sweep_tau(cfg, [300.0, 100.0])
    assert [r.tau_us for r in reports] == [300.0, 100.0]
    single = o.run_cycle(_config(300.0))
    assert reports[0].mean_work_pev == single.mean_work_pev


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        o.sweep_tau(_config(100.0), [])


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


def test_efficiency_closed_form_rejects_equal_polarizations():
    # hot and cold polarizations coincide when kT2/kT1 = nu2/nu1
    t = o.ThermalParams(6.6, 6.6 * 1.8)
    with pytest.raises(ValueError, match="efficiency undefined"):
        o.efficiency_closed_form(PROTOCOL, t, 0.1)


def test_extraction_bound_frozen_values():
    assert o.extraction_bound(PROTOCOL, THERMAL_A) == pytest.approx(
        oracles.EXTRACTION_BOUND_OPTION_A, abs=1e-12
    )
    assert o.extraction_bound(PROTOCOL, THERMAL_B) == pytest.approx(
        oracles.EXTRACTION_BOUND_OPTION_B, abs=1e-12
    )


def test_extraction_bound_is_the_work_sign_root():
    for thermal in (THERMAL_A, THERMAL_B):
        bound = o.extraction_bound(PROTOCOL, thermal)
        assert o.mean_work_closed_form(PROTOCOL, thermal, bound - 1e-6) > 0
        assert o.mean_work_closed_form(PROTOCOL, thermal, bound + 1e-6) < 0
        assert o.mean_work_closed_form(PROTOCOL, thermal, bound) == pytest.approx(
            0.0, abs=1e-12
        )


def test_extraction_bound_vanishes_without_a_temperature_gradient():
    assert o.extraction_bound(PROTOCOL, o.ThermalParams(6.6, 6.6)) == 0.0


def test_extraction_bound_vanishes_when_compression_outruns_the_baths():
    # nu2/nu1 beyond kT2/kT1 leaves no positive-work window even without swaps
    steep = o.DriveProtocol(2.0, 14.0, 100.0)
    assert o.extraction_bound(steep, THERMAL_A) == 0.0


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
            and o.extraction_bound(PROTOCOL, o.ThermalParams(kt_cold, kt_hot))
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
    if o.extraction_bound(p, t) <= swap_prob:  # not an engine there; skip
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

def test_relative_entropy_of_a_state_with_itself_is_zero():
    rho = o.gibbs_state(o.drive_hamiltonian(0.0, PROTOCOL), 6.6)
    assert o.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_frozen_value():
    a = np.eye(2, dtype=complex) / 2
    b = np.diag([0.3, 0.7]).astype(complex)
    assert o.relative_entropy(a, b) == pytest.approx(
        oracles.REL_ENTROPY_HALF_VS_37, abs=1e-12
    )


def test_relative_entropy_matches_matrix_logarithm_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        u1, u2 = oracles.haar_unitary(rng), oracles.haar_unitary(rng)
        a = u1 @ np.diag(rng.dirichlet([2.0, 2.0])) @ u1.conj().T
        b = u2 @ np.diag(rng.dirichlet([2.0, 2.0])) @ u2.conj().T
        assert o.relative_entropy(a, b) == pytest.approx(
            oracles.relative_entropy_logm(a, b), abs=1e-10
        )


def test_relative_entropy_is_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(25):
        u1, u2 = oracles.haar_unitary(rng), oracles.haar_unitary(rng)
        a = u1 @ np.diag(rng.dirichlet([1.5, 1.5])) @ u1.conj().T
        b = u2 @ np.diag(rng.dirichlet([1.5, 1.5])) @ u2.conj().T
        assert o.relative_entropy(a, b) >= -1e-12


def test_relative_entropy_rejects_singular_reference():
    pure = np.array([[1.0, 0.0], [0.0, 0.0]], complex)
    with pytest.raises(ValueError, match="relative entropy infinite"):
        o.relative_entropy(np.eye(2) / 2, pure)


def test_relative_entropy_is_jointly_convex():
    rng = np.random.default_rng(29)
    for _ in range(10):
        lam = rng.uniform(0.1, 0.9)
        states = []
        for _ in range(4):
            u = oracles.haar_unitary(rng)
            states.append(u @ np.diag(rng.dirichlet([3.0, 3.0])) @ u.conj().T)
        a1, b1, a2, b2 = states
        mixed = o.relative_entropy(
            lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2
        )
        separate = lam * o.relative_entropy(a1, b1) + (1 - lam) * o.relative_entropy(a2, b2)
        assert mixed <= separate + 1e-10


def test_lag_of_a_do_nothing_cycle_is_the_carnot_ceiling():
    # no drive, same gap both ends: the only "heat" is direct equilibration,
    # all of the ceiling is lost to the lag, and the engine extracts nothing.
    h = -0.5 * o.PLANCK_PEV_PER_KHZ * 2.0 * o.PAULI_X
    cold = o.gibbs_state(h, 6.6)
    hot = o.gibbs_state(h, 40.5)
    qh = float(np.real(np.trace(h @ (hot - cold))))
    lag = o.efficiency_lag(cold, hot, hot, cold, qh, 1.0 / 6.6)
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
    lag = o.efficiency_lag(
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
        o.efficiency_lag(rho, rho, rho, rho, 0.0, 1.0 / 6.6)


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
        r_in = np.einsum("ijk,nkj->ni", pauli, scaled).real
        repaired = 0.5 * (o.IDENTITY + np.einsum("ni,ijk->njk", _repair_batch(t_in, r_in), pauli))
        assert np.isfinite(repaired).all()
        for got, m in zip(repaired, scaled):
            np.testing.assert_allclose(got, oracles.repair_state_eigh(m), rtol=0.0, atol=1e-14)


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
            period = 2.0 * tau + cfg.t_thermalization_us + cfg.t_cooling_us
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
