"""Acceptance suite: one test per shipped criterion, one verdict line each.

Every tolerance below is part of the package contract.  The criteria are
deliberately end-to-end: they exercise the shipped defaults (auto-converged
propagation, hot-bath presets, seeded Monte Carlo, the CLI) rather than
hand-picked internals, and the numeric oracles come from ``oracles.py``
which shares no code with the library.
"""

import time

import numpy as np
import pytest

import ottospin as o
from ottospin.cli import main as cli_main
import oracles

TAU_GRID = (100.0, 200.0, 235.0, 260.0, 300.0, 320.0, 420.0, 500.0, 600.0, 700.0)
THERMAL_A = o.ThermalParams(6.6, 21.5)
THERMAL_B = o.ThermalParams(6.6, 40.5)
H = o.PLANCK_PEV_PER_KHZ


def _protocol(tau_us):
    return o.DriveProtocol(2.0, 3.6, tau_us)


def _swap_prob(tau_us):
    u = o.evolve_unitary(_protocol(tau_us))
    h_i, h_f = o.endpoint_hamiltonians(u.protocol)
    return o.transition_probability(u, h_i, h_f)


@pytest.fixture(scope="module")
def random_configurations():
    """1000 random engine configurations with a Haar-random stroke unitary.

    Shared by criteria 5 and 6.  For each draw we record the three
    computation routes for the means: closed form, brute-force history
    enumeration, and endpoint-trace bookkeeping on the simulated states.
    """
    rng = np.random.default_rng(2024)
    rows = []
    for _ in range(1000):
        nu1 = rng.uniform(0.5, 5.0)
        nu2 = nu1 + rng.uniform(0.1, 5.0)
        kt1 = rng.uniform(1.0, 30.0)
        kt2 = kt1 + rng.uniform(0.5, 60.0)
        protocol = o.DriveProtocol(nu1, nu2, 100.0)
        thermal = o.ThermalParams(kt1, kt2)

        h_i, h_f = o.endpoint_hamiltonians(protocol)
        u = oracles.haar_unitary(rng)
        umap = o.UnitaryMap(u, protocol, 1)
        swap_prob = o.transition_probability(umap, h_i, h_f)

        rho_cold = o.gibbs_state(h_i, kt1)
        rho_hot = o.gibbs_state(h_f, kt2)
        after_expansion = u @ rho_cold @ u.conj().T
        after_compression = u.conj().T @ rho_hot @ u

        def _tr(hm, rho):
            return float(np.real(np.trace(hm @ rho)))

        trace_work = (
            _tr(h_i, rho_cold) - _tr(h_f, after_expansion)
            + _tr(h_f, rho_hot) - _tr(h_i, after_compression)
        )
        trace_heat_hot = _tr(h_f, rho_hot) - _tr(h_f, after_expansion)

        closed_work = o.mean_work_closed_form(protocol, thermal, swap_prob)
        closed_heat_hot = o.mean_heat_hot_closed_form(protocol, thermal, swap_prob)
        closed_heat_cold = o.mean_heat_cold_closed_form(protocol, thermal, swap_prob)

        p = o.thermal_populations(nu1, kt1)
        q = o.thermal_populations(nu2, kt2)
        e_i, e_f = o.endpoint_spectra(protocol)
        pairs = oracles.brute_force_work_pairs(
            p, q, swap_prob, tuple(e_i), tuple(e_f)
        )
        brute_work = sum(prob * delta for prob, delta in pairs)
        _, brute_heat_hot, brute_heat_cold = oracles.cycle_means(
            nu1, nu2, kt1, kt2, swap_prob
        )

        rows.append(
            {
                "closed_work": closed_work,
                "closed_heat_hot": closed_heat_hot,
                "closed_heat_cold": closed_heat_cold,
                "trace_work": trace_work,
                "trace_heat_hot": trace_heat_hot,
                "brute_work": brute_work,
                "brute_heat_hot": brute_heat_hot,
                "brute_heat_cold": brute_heat_cold,
            }
        )
    return rows


def test_criterion_01_unitarity_and_reversal(criterion):
    start = time.perf_counter()
    worst_unitarity = 0.0
    maps = []
    for tau in TAU_GRID:
        u = o.evolve_unitary(_protocol(tau))
        worst_unitarity = max(
            worst_unitarity, np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(2)))
        )
        maps.append(u)
    elapsed = time.perf_counter() - start
    # the compression drive integrated on its own, at the expansion's step
    # count, outside the timed block: the package serves its propagator as U^dagger
    worst_reversal = max(
        np.max(np.abs(u.matrix.conj().T - oracles.sequential_magnus_product(
            2.0, 3.6, u.protocol.tau_us, u.n_steps, True)))
        for u in maps
    )
    criterion(
        1,
        "unitarity < 1e-10 and reversal < 1e-8 on the grid in under 1 s",
        worst_unitarity < 1e-10 and worst_reversal < 1e-8 and elapsed < 1.0,
    )


def test_criterion_02_sudden_limit(criterion):
    criterion(2, "sudden quench swap probability is 0.500 +/- 1e-3",
              abs(_swap_prob(0.01) - 0.5) <= 1e-3)


def test_criterion_03_transition_probability_bands(criterion):
    criterion(
        3,
        "swap probability in [0.32, 0.44] at 100 us and <= 0.06 at 700 us",
        0.32 <= _swap_prob(100.0) <= 0.44 and _swap_prob(700.0) <= 0.06,
    )


def test_criterion_04_work_distribution_support(criterion):
    dist = o.engine_work_distribution(_protocol(100.0), THERMAL_B, _swap_prob(100.0))
    expected = sorted(
        [0.0, H * 1.6, -H * 1.6, H * 2.0, -H * 2.0, H * 3.6, -H * 3.6, H * 5.6, -H * 5.6]
    )
    support_ok = len(dist.energies_pev) == 9 and all(
        abs(got - want) <= 0.01
        for got, want in zip(dist.energies_pev, expected)
    )
    # the nine positions, to two decimals, are 0, +/-6.62, +/-8.27, +/-14.89, +/-23.16
    rounded = sorted(round(e, 2) for e in dist.energies_pev)
    literal_ok = rounded == sorted(
        [0.0, 6.62, -6.62, 8.27, -8.27, 14.89, -14.89, 23.16, -23.16]
    )
    norm_ok = abs(sum(dist.probabilities) - 1.0) <= 1e-12
    criterion(
        4,
        "work atoms at {0, +/-6.62, +/-8.27, +/-14.89, +/-23.16} peV, normalized",
        support_ok and literal_ok and norm_ok,
    )


def test_criterion_05_three_route_oracle_equivalence(criterion, random_configurations):
    worst = 0.0
    for row in random_configurations:
        worst = max(
            worst,
            abs(row["closed_work"] - row["brute_work"]),
            abs(row["closed_work"] - row["trace_work"]),
            abs(row["closed_heat_hot"] - row["brute_heat_hot"]),
            abs(row["closed_heat_hot"] - row["trace_heat_hot"]),
        )
    criterion(
        5,
        "closed forms match brute-force histories and trace forms to 1e-10 x1000",
        worst < 1e-10,
    )


def test_criterion_06_first_law(criterion, random_configurations):
    worst = max(
        abs(row["closed_heat_cold"] + row["closed_heat_hot"] - row["closed_work"])
        for row in random_configurations
    )
    criterion(6, "heat bookkeeping balances work to 1e-10 in every configuration",
              worst < 1e-10)


def test_criterion_07_lag_identity(criterion):
    worst = 0.0
    for thermal in (THERMAL_A, THERMAL_B):
        for tau in TAU_GRID:
            r = o.run_cycle(o.CycleConfig(_protocol(tau), thermal))
            worst = max(
                worst, abs(r.efficiency - (r.efficiency_carnot - r.efficiency_lag))
            )
    criterion(7, "efficiency equals Carnot ceiling minus lag to 1e-9, both baths",
              worst < 1e-9)


def test_criterion_08_otto_and_carnot_anchors(criterion):
    eta_ideal = o.efficiency_closed_form(_protocol(100.0), THERMAL_B, 0.0)
    r = o.run_cycle(o.CycleConfig(_protocol(700.0), THERMAL_B))
    criterion(
        8,
        "ideal-swap efficiency 1 - 2.0/3.6 and Carnot 1 - 6.6/40.5 to 1e-12",
        abs(eta_ideal - (1.0 - 2.0 / 3.6)) <= 1e-12
        and abs(r.efficiency_carnot - (1.0 - 6.6 / 40.5)) <= 1e-12,
    )


def test_criterion_09_extraction_threshold(criterion):
    works = [
        o.run_cycle(o.CycleConfig(_protocol(tau), THERMAL_B)).mean_work_pev
        for tau in TAU_GRID
    ]
    signs = [w > 0 for w in works]
    flips = [
        (lo, hi)
        for lo, hi, a, b in zip(TAU_GRID, TAU_GRID[1:], signs, signs[1:])
        if a != b
    ]
    inside = all(100.0 < lo and hi < 300.0 for lo, hi in flips)
    criterion(9, "extracted work changes sign exactly once, inside (100, 300) us",
              len(flips) == 1 and inside)


def test_criterion_10_maximum_power(criterion):
    taus = np.arange(100.0, 701.0, 10.0)
    reports = [o.run_cycle(o.CycleConfig(_protocol(t), THERMAL_B)) for t in taus]
    powers = np.array([r.power_pev_per_ms for r in reports])
    k = int(np.argmax(powers))
    local_maxima = [
        i
        for i in range(1, len(powers) - 1)
        if powers[i] > powers[i - 1] and powers[i] > powers[i + 1]
    ]
    # the curve is not unimodal (the swap probability oscillates with tau),
    # but it must have exactly one interior peak and that peak must be the
    # global maximum, strictly above both endpoints
    unique_interior = (
        local_maxima == [k] and powers[k] > powers[0] and powers[k] > powers[-1]
    )
    eta_at_max = reports[k].efficiency
    criterion(
        10,
        "power peaks once inside the grid, argmax in [210, 420] us, eta in [0.38, 0.45]",
        unique_interior and 210.0 <= taus[k] <= 420.0 and 0.38 <= eta_at_max <= 0.45,
    )


def test_criterion_11_characteristic_round_trip(criterion):
    dist = o.engine_work_distribution(_protocol(100.0), THERMAL_B, _swap_prob(100.0))
    u_grid = o.conjugate_u_grid(H * 0.4, 32)  # every atom sits on this lattice
    recovered = o.invert_characteristic(o.characteristic_function(dist, u_grid))
    ok = len(recovered.energies_pev) == len(dist.energies_pev) and all(
        abs(ep - eq) < 1e-6 and abs(pp - pq) < 1e-6
        for ep, pp, eq, pq in zip(
            recovered.energies_pev,
            recovered.probabilities,
            dist.energies_pev,
            dist.probabilities,
        )
    )
    criterion(11, "discrete inversion recovers all nine atom weights within 1e-6", ok)


def test_criterion_12_process_diagnostics(criterion):
    u = o.evolve_unitary(_protocol(100.0))
    # the compression drive integrated on its own
    v = oracles.sequential_magnus_product(2.0, 3.6, 100.0, u.n_steps, True)
    choi = o.choi_from_unitary(u)
    real_ok = np.max(np.abs(choi.matrix.imag)) < 1e-9
    unital_ok = o.unitality_defect(choi) < 1e-10
    self_ok = o.process_trace_distance(choi, choi) == 0.0
    composite = o.choi_from_unitary(v @ u.matrix)
    round_trip_ok = (
        o.process_trace_distance(composite, o.identity_process()) < 1e-8
    )
    criterion(
        12,
        "process matrix real, unital, zero self-distance, round trip near identity",
        real_ok and unital_ok and self_ok and round_trip_ok,
    )


def test_criterion_13_monte_carlo_reproducibility(criterion, tmp_path):
    cfg = o.CycleConfig(_protocol(300.0), THERMAL_B)
    report, estimates = o.cycle_with_uncertainty(cfg, rel_noise=0.0, n_samples=200, seed=0)
    exact_ok = all(
        estimates[f].mean == getattr(report, f) and estimates[f].stddev == 0.0
        for f in o.MONTE_CARLO_FIELDS
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["sweep", "--out", str(first)]) == 0
    assert cli_main(["sweep", "--out", str(second)]) == 0
    criterion(
        13,
        "zero noise is exact and a fixed seed gives byte-identical sweep output",
        exact_ok and first.read_bytes() == second.read_bytes(),
    )


def test_criterion_14_default_sweep_runtime(criterion, tmp_path):
    start = time.perf_counter()
    rc_a = cli_main(["sweep", "--hot", "A", "--out", str(tmp_path / "a.csv")])
    rc_b = cli_main(["sweep", "--hot", "B", "--out", str(tmp_path / "b.csv")])
    elapsed = time.perf_counter() - start
    criterion(
        14,
        "default sweep, both hot options, 1000 samples each, under 10 s",
        rc_a == 0 and rc_b == 0 and elapsed < 10.0,
    )
