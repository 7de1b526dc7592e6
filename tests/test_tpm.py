import math
import random
import re
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ottospin as o
from ottospin import tpm
import oracles

PROTOCOL = o.DriveProtocol(2.0, 3.6, 100.0)
THERMAL_B = o.ThermalParams(6.6, 40.5)
SWAP_100 = oracles.TRANSITION_PROB_CONVERGED[100.0]

# the nine resolvable energy-jump positions of the default ramp, in peV
H = o.PLANCK_PEV_PER_KHZ
NINE_ATOMS = sorted(
    [0.0, H * 1.6, -H * 1.6, H * 2.0, -H * 2.0, H * 3.6, -H * 3.6, H * 5.6, -H * 5.6]
)

probs = st.floats(min_value=0.01, max_value=0.99)
swap_probs = st.floats(min_value=0.0, max_value=1.0)


def _default_inputs(swap_prob):
    p = o.thermal_populations(2.0, 6.6)
    q = o.thermal_populations(3.6, 40.5)
    e_i, e_f = o.endpoint_spectra(PROTOCOL)
    return p, q, swap_prob, (tuple(e_i), tuple(e_f))


def test_enumerate_histories_covers_all_sixteen_outcomes():
    delta, prob = oracles.enumerate_histories(*_default_inputs(SWAP_100))
    assert delta.shape == prob.shape == (2, 2, 2, 2)


def test_history_probabilities_factorize():
    p, q, swap_prob, spectra = _default_inputs(SWAP_100)
    # t[m, n]: land on level m from level n, swapping with probability xi
    t = np.array([[1.0 - swap_prob, swap_prob], [swap_prob, 1.0 - swap_prob]])
    _, prob = oracles.enumerate_histories(p, q, swap_prob, spectra)
    for n, m, k, j in np.ndindex(prob.shape):
        expected = p[n] * t[m, n] * q[k] * t[j, k]
        assert prob[n, m, k, j] == pytest.approx(expected, abs=1e-15)


def test_history_energies_match_brute_force_pairs():
    p, q, swap_prob, spectra = _default_inputs(SWAP_100)
    got_delta, got_prob = oracles.enumerate_histories(p, q, swap_prob, spectra)
    pairs = oracles.brute_force_work_pairs(p, q, swap_prob, spectra[0], spectra[1])
    # the oracle nests its loops in the same n, m, k, j order
    for idx, (prob, delta) in zip(np.ndindex(got_prob.shape), pairs, strict=True):
        assert got_prob[idx] == pytest.approx(prob, abs=1e-15)
        assert got_delta[idx] == pytest.approx(delta, abs=1e-12)


@pytest.mark.parametrize(
    "cold, message",
    [
        ((0.5,), r"cold populations must be a pair, got shape \(1,\)"),
        ((-0.1, 1.1), r"cold populations must be nonnegative, got \[-0.1  1.1\]"),
        ((1.1, -0.1), r"cold populations must be nonnegative"),
        ((0.5, 0.6), r"cold populations must sum to 1, got 1.1"),
        ((0.5, 0.5 - 2e-9), r"cold populations must sum to 1, got 0.999999998"),
    ],
)
def test_histories_reject_invalid_populations(cold, message):
    _, q, swap_prob, spectra = _default_inputs(SWAP_100)
    with pytest.raises(ValueError, match=message):
        oracles.enumerate_histories(cold, q, swap_prob, spectra)


def test_populations_within_the_sum_tolerance_are_accepted():
    _, q, swap_prob, spectra = _default_inputs(SWAP_100)
    _, prob = oracles.enumerate_histories((0.5, 0.5 + 5e-10), q, swap_prob, spectra)
    assert prob.sum() == pytest.approx(1.0, abs=1e-9)


@given(probs, probs, swap_probs)
def test_history_probabilities_sum_to_one(p0, q0, swap_prob):
    _, prob = oracles.enumerate_histories(
        (p0, 1 - p0), (q0, 1 - q0), swap_prob, ((-1.0, 1.0), (-2.0, 2.0))
    )
    assert prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_adiabatic_limit_leaves_three_work_atoms():
    # zero swap probability keeps only diagonal strokes: jumps at 0 and
    # +/- h(nu2 - nu1).
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, 0.0)
    np.testing.assert_allclose(
        dist.energies_pev, [-H * 1.6, 0.0, H * 1.6], atol=1e-12
    )
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_default_engine_distribution_has_nine_atoms():
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    assert len(dist.energies_pev) == 9
    np.testing.assert_allclose(dist.energies_pev, NINE_ATOMS, atol=1e-12)


@given(probs, probs, st.floats(min_value=0.0, max_value=0.5))
def test_distribution_mean_equals_history_average(p0, q0, swap_prob):
    p, q = (p0, 1 - p0), (q0, 1 - q0)
    spectra = ((-4.135667696, 4.135667696), (-7.4442018528, 7.4442018528))
    delta, prob = oracles.enumerate_histories(p, q, swap_prob, spectra)
    dist = o.EnergyDistribution.from_atoms(delta.ravel(), prob.ravel(), "work")
    direct = (prob * delta).sum()
    mean = math.fsum(
        energy * weight for energy, weight in zip(dist.energies_pev, dist.probabilities)
    )
    assert mean == pytest.approx(direct, abs=1e-12)


def test_mean_work_matches_independent_stroke_bookkeeping():
    w, _, _ = oracles.cycle_means(2.0, 3.6, 6.6, 40.5, SWAP_100)
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    mean = math.fsum(
        energy * weight for energy, weight in zip(dist.energies_pev, dist.probabilities)
    )
    assert mean == pytest.approx(w, abs=1e-12)
    assert mean == pytest.approx(
        o.mean_work_closed_form(PROTOCOL, THERMAL_B, SWAP_100), abs=1e-12
    )


def test_engine_distribution_is_convolution_of_stroke_distributions():
    p, q, _, (e_i, e_f) = _default_inputs(SWAP_100)
    energies, weights = oracles.convolved_stroke_work_atoms(p, q, SWAP_100, e_i, e_f)
    full = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    np.testing.assert_allclose(energies, full.energies_pev, atol=1e-12)
    np.testing.assert_allclose(weights, full.probabilities, atol=1e-12)


def test_characteristic_function_factorizes_over_strokes():
    # independence of the two strokes shows up as a product of transforms
    p, q, _, (e_i, e_f) = _default_inputs(SWAP_100)
    expansion = oracles.stroke_work_atoms(p, SWAP_100, e_i, e_f)
    compression = oracles.stroke_work_atoms(q, SWAP_100, e_f, e_i)
    full = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    u = np.linspace(-2.0, 2.0, 41)
    chi_full = o.characteristic_function(full, u).values
    chi_prod = oracles.atoms_characteristic(expansion, u) * oracles.atoms_characteristic(
        compression, u
    )
    np.testing.assert_allclose(chi_full, chi_prod, atol=1e-12)


def test_characteristic_function_at_zero_is_one():
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    chi = o.characteristic_function(dist, [0.0])
    assert chi.values[0] == pytest.approx(1.0, abs=1e-15)


def test_characteristic_function_single_atom_is_pure_phase():
    dist = o.EnergyDistribution((3.0,), (1.0,), "work")
    u = np.array([0.0, 0.5, 1.3])
    chi = o.characteristic_function(dist, u)
    np.testing.assert_allclose(chi.values, np.exp(1j * u * 3.0), atol=1e-15)


def test_characteristic_samples_validate_normalization():
    with pytest.raises(ValueError):
        o.CharacteristicSamples((0.0, 1.0), (0.5 + 0j, 1.0 + 0j))


@pytest.mark.parametrize(
    "u, values",
    [([0.0, 1.0, 2.0, 3.0], [math.nan] * 4),
     ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, complex(0.5, math.inf), 0.5]),
     ([-1.0, 0.0, 1.0], [0.5, 1.0, complex(math.nan, 0.0)])],
)
def test_characteristic_samples_reject_non_finite_values(u, values):
    # on a grid without negative u and on one with them
    with pytest.raises(ValueError, match="chi samples must be finite"):
        o.CharacteristicSamples(u, values)


def test_inversion_round_trips_the_engine_distribution():
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    spacing = H * 0.4  # every default-ramp atom sits on this lattice
    u = o.conjugate_u_grid(spacing, 32)
    recovered = o.invert_characteristic(o.characteristic_function(dist, u))
    assert len(recovered.energies_pev) == len(dist.energies_pev)
    np.testing.assert_allclose(recovered.energies_pev, dist.energies_pev, atol=1e-9)
    np.testing.assert_allclose(recovered.probabilities, dist.probabilities, atol=1e-9)


def test_inversion_recovers_two_atom_cosine_spectrum():
    dist = o.EnergyDistribution((-2.0, 2.0), (0.5, 0.5), "work")
    u = o.conjugate_u_grid(2.0, 16)
    chi = o.characteristic_function(dist, u)
    np.testing.assert_allclose(chi.values, np.cos(2.0 * chi.u_per_pev), atol=1e-12)
    recovered = o.invert_characteristic(chi)
    np.testing.assert_allclose(recovered.energies_pev, [-2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(recovered.probabilities, [0.5, 0.5], atol=1e-12)


def test_inversion_of_flat_transform_is_a_point_mass_at_zero():
    u = o.conjugate_u_grid(1.0, 16)
    flat = o.CharacteristicSamples(tuple(u), tuple(np.ones(16, complex)))
    recovered = o.invert_characteristic(flat)
    assert recovered.energies_pev == (0.0,)
    assert recovered.probabilities == (1.0,)


@pytest.mark.parametrize("n, u_start", [(32, 0.0), (33, 0.0), (24, 0.37), (25, -1.9)])
def test_inversion_matches_the_dense_fourier_sum(n, u_start):
    spacing = 0.8
    u = u_start + np.arange(n) * (2.0 * np.pi / (n * spacing))
    window = np.arange(-(n // 2), n - n // 2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        lattice = np.sort(rng.choice(window, size=n // 3, replace=False))
        dist = o.EnergyDistribution.from_atoms(
            lattice * spacing, rng.dirichlet(np.ones(len(lattice))), "work"
        )
        chi = o.characteristic_function(dist, u)
        recovered = o.invert_characteristic(chi)
        energies, weights = oracles.dense_inversion_weights(u, chi.values)
        dense = dict(zip(np.round(energies, 9), weights))
        got = dict(zip(np.round(recovered.energies_pev, 9), recovered.probabilities))
        assert set(got) <= set(dense)
        for key, weight in dense.items():
            assert got.get(key, 0.0) == pytest.approx(weight, abs=1e-13)


def test_round_trip_recovers_cold_bath_atoms_at_every_tau():
    # gap/kT_cold = 15: the lightest work atoms weigh ~1e-13, and a weight
    # floor far above round-off would drop enough of them to break the sum
    thermal = o.ThermalParams(0.55, 40.5)
    taus = [100.0 + 10.0 * i for i in range(61)]
    reports = o.sweep_tau(o.CycleConfig(PROTOCOL, thermal), taus)
    u = o.conjugate_u_grid(H * 0.4, 32)  # criterion 11's grid
    for report in reports:
        protocol = o.DriveProtocol(2.0, 3.6, report.tau_us)
        dist = o.engine_work_distribution(protocol, thermal, report.transition_prob)
        recovered = o.invert_characteristic(o.characteristic_function(dist, u))
        assert sum(recovered.probabilities) == pytest.approx(1.0, abs=1e-12)
        got = np.asarray(recovered.energies_pev)
        for energy, weight in zip(dist.energies_pev, dist.probabilities):
            if weight > 1e-7:
                i = np.argmin(np.abs(got - energy))
                assert got[i] == pytest.approx(energy, abs=1e-9)
                assert recovered.probabilities[i] == pytest.approx(weight, abs=1e-9)


def _symmetric_grid_samples(m=6, du=0.3):
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    return o.characteristic_function(dist, du * np.arange(-m, m + 1))


def test_characteristic_samples_accept_exact_samples_on_a_symmetric_grid():
    chi = _symmetric_grid_samples()
    o.CharacteristicSamples(chi.u_per_pev, chi.values)


@pytest.mark.parametrize("index, shift", [(0, 1e-9), (3, 1e-9j), (5, -1e-9)])
def test_characteristic_samples_reject_a_broken_conjugate_pair(index, shift):
    chi = _symmetric_grid_samples()
    values = chi.values.copy()
    values[index] += shift  # u[index] < 0: chi(-u) moves off conj(chi(u))
    with pytest.raises(ValueError, match=r"chi\(-u\) must equal conj\(chi\(u\)\)"):
        o.CharacteristicSamples(chi.u_per_pev, values)


def test_inversion_requires_a_uniform_grid():
    dist = o.EnergyDistribution((1.0,), (1.0,), "work")
    chi = o.characteristic_function(dist, [0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        o.invert_characteristic(chi)


def test_heat_distribution_has_hot_gap_atoms():
    q = o.thermal_populations(3.6, 40.5)
    p = o.thermal_populations(2.0, 6.6)
    s = oracles.post_expansion_populations(p, SWAP_100)
    _, e_f = o.endpoint_spectra(PROTOCOL)
    dist = oracles.heat_distribution(s, q, e_f)
    np.testing.assert_allclose(
        dist.energies_pev, [-H * 3.6, 0.0, H * 3.6], atol=1e-12
    )
    assert dist.kind == "heat"


def test_heat_mean_matches_independent_bookkeeping_and_closed_form():
    _, qh, _ = oracles.cycle_means(2.0, 3.6, 6.6, 40.5, SWAP_100)
    dist = o.engine_heat_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    mean = math.fsum(
        energy * weight for energy, weight in zip(dist.energies_pev, dist.probabilities)
    )
    assert mean == pytest.approx(qh, abs=1e-12)
    assert mean == pytest.approx(
        o.mean_heat_hot_closed_form(PROTOCOL, THERMAL_B, SWAP_100), abs=1e-12
    )


def test_heat_distribution_is_symmetric_when_nothing_flows():
    # populations already equilibrated with the hot bath: zero-mean exchange
    q = o.thermal_populations(3.6, 40.5)
    _, e_f = o.endpoint_spectra(PROTOCOL)
    dist = oracles.heat_distribution(q, q, e_f)
    mean = math.fsum(
        energy * weight for energy, weight in zip(dist.energies_pev, dist.probabilities)
    )
    assert mean == pytest.approx(0.0, abs=1e-12)


def test_post_expansion_populations_mix_by_swap_probability():
    s = oracles.post_expansion_populations((0.8, 0.2), 0.25)
    assert s[0] == pytest.approx(0.8 * 0.75 + 0.2 * 0.25, abs=1e-15)
    assert s[1] == pytest.approx(0.2 * 0.75 + 0.8 * 0.25, abs=1e-15)


def test_from_atoms_merges_coincident_energies():
    dist = o.EnergyDistribution.from_atoms(
        [1.0, 1.0 + 1e-12, -1.0], [0.3, 0.3, 0.4], "work"
    )
    assert len(dist.energies_pev) == 2
    assert dist.probabilities[1] == pytest.approx(0.6, abs=1e-15)


def test_from_atoms_drops_zero_probability_atoms():
    dist = o.EnergyDistribution.from_atoms([1.0, 2.0], [1.0, 0.0], "work")
    assert dist.energies_pev == (1.0,)


def _raw_atoms(rng):
    """Random raw atoms: clusters of 1-12 atoms within the merge tolerance of
    their first atom, some chains (consecutive gaps within the tolerance,
    span beyond it), -0.0 energies, zero, subnormal and slightly negative
    weights, whole clusters of zero weight."""
    energies = []
    anchor = rng.uniform(-30.0, -20.0)
    for _ in range(rng.integers(1, 7)):
        anchor += rng.choice([rng.uniform(0.01, 8.0), 2e-9, 0.0])
        if rng.random() < 0.25:
            chain = np.cumsum(rng.uniform(0.4e-9, 1e-9, rng.integers(2, 9)))
            energies += list(anchor + np.concatenate([[0.0], chain]))
            anchor += chain[-1]
        else:
            size = rng.integers(1, 13)
            energies += list(anchor + rng.uniform(0.0, 1e-9, size) * (rng.random(size) < 0.8))
    if rng.random() < 0.3:
        energies += [-0.0, 0.0, -0.0][: rng.integers(1, 4)]
    energies = np.array(energies)
    weights = rng.uniform(0.0, 1.0, len(energies)) ** rng.uniform(1.0, 6.0)
    tiny = rng.random(len(energies)) < 0.1
    weights[tiny] = rng.uniform(0.0, 1e-310, tiny.sum())  # subnormal
    dead = rng.random(len(energies)) < 0.15
    if rng.random() < 0.2:  # one whole cluster (energies within 1e-9) weightless
        dead |= np.abs(energies - energies[rng.integers(len(energies))]) <= 1e-9
    if dead.all():
        dead[0] = False
    weights[dead] = 0.0
    weights /= weights.sum()
    weights[dead] = rng.choice([0.0, -0.0, -1e-12, -5e-13, -1e-16], dead.sum())
    return rng.permutation(energies), weights


def test_from_atoms_matches_the_exact_single_linkage_merge():
    # bound, from the operations: first - v, c / max(c), their products, both
    # fsums and the division each round once, so the offset from the first
    # atom is off by at most ~3 eps (last - first); the last subtraction
    # rounds once more, and the clamp only moves toward the exact mean.  So
    # |got - exact| <= ulp(got) / 2 + 4 eps (last - first)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20140930)
    sizes, chains, spread, subnormal = set(), 0, 0, 0
    for trial in range(1500):
        energies, weights = _raw_atoms(rng)
        expected = oracles.merge_atoms_loop(energies, weights)
        inputs = (
            (energies, weights),
            (energies.tolist(), weights.tolist()),
            ((e for e in energies.tolist()), iter(weights)),
        )[trial % 3]
        dist = o.EnergyDistribution.from_atoms(*inputs, "work")
        assert len(dist.energies_pev) == len(expected)
        for got, prob, (mean, weight, first, last) in zip(
            dist.energies_pev, dist.probabilities, expected
        ):
            assert prob == float(weight)  # fsum rounds the exact sum once
            assert first <= got <= last
            bound = math.ulp(got) / 2 + 4.0 * eps * (last - first)
            assert abs(Fraction(got) - mean) <= bound, (got, float(mean), first, last)
            spread += last > first
            subnormal += 0.0 < weight < 2.2250738585072014e-308
        assert all(b - a > o.MERGE_TOLERANCE_PEV
                   for a, b in zip(dist.energies_pev, dist.energies_pev[1:]))
        values = np.sort(energies).tolist()
        linked = _linked_clusters(values)
        sizes.update(linked)
        # a chain: single linkage joins what the span from the first atom would split
        chains += len(linked) < len(_anchor_clusters(values))
    assert set(range(1, 13)) <= sizes
    assert chains > 50
    assert spread > 1000 and subnormal > 20, (spread, subnormal)


def _linked_clusters(values):
    """Sizes of the clusters of sorted ``values`` under single linkage."""
    gaps = np.diff(values) > 1e-9
    return np.diff(np.flatnonzero(np.concatenate([[True], gaps, [True]]))).tolist()


def _anchor_clusters(values):
    """Sizes of the clusters of sorted ``values`` when each cluster ends
    beyond the tolerance from its first atom."""
    sizes, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > 1e-9:
            sizes.append(i - start)
            start = i
    return sizes


def test_distribution_validation():
    with pytest.raises(ValueError):
        o.EnergyDistribution((0.0,), (0.5,), "work")  # not normalized
    with pytest.raises(ValueError):
        o.EnergyDistribution((0.0, 1.0), (1.1, -0.1), "work")  # negative weight
    with pytest.raises(ValueError):
        o.EnergyDistribution((1.0, 0.0), (0.5, 0.5), "work")  # not ascending
    with pytest.raises(ValueError):
        o.EnergyDistribution((0.0,), (1.0,), "entropy")  # unknown kind


def test_lorentzian_peak_height_and_area():
    dist = o.EnergyDistribution((2.0,), (1.0,), "work")
    fwhm = 1.2
    grid = np.linspace(-120.0, 124.0, 400001)
    density = o.lorentzian_broaden(dist, fwhm, grid)
    peak = density[np.argmin(np.abs(grid - 2.0))]
    assert peak == pytest.approx(2.0 / (math.pi * fwhm), rel=1e-6)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.01)


def test_lorentzian_superposes_atom_weights():
    dist = o.EnergyDistribution((-1.0, 1.0), (0.25, 0.75), "work")
    grid = np.linspace(-8.0, 8.0, 3201)
    density = o.lorentzian_broaden(dist, 0.5, grid)
    taller = density[np.argmin(np.abs(grid - 1.0))]
    shorter = density[np.argmin(np.abs(grid + 1.0))]
    assert taller > shorter


def test_lorentzian_rejects_nonpositive_width():
    dist = o.EnergyDistribution((0.0,), (1.0,), "work")
    with pytest.raises(ValueError):
        o.lorentzian_broaden(dist, 0.0, [0.0])


def test_lorentzian_rejects_non_finite_and_unrepresentable_widths():
    dist = o.EnergyDistribution((0.0,), (1.0,), "work")
    for fwhm, message in [
        (math.inf, "fwhm must be positive and finite, got inf"),
        (math.nan, "fwhm must be positive and finite, got nan"),
        (1e200, "fwhm 1e+200 is too wide: its squared half width overflows"),
        (np.float64(1e200), "fwhm 1e+200 is too wide: its squared half width overflows"),
        (1e-200, "fwhm 1e-200 is too narrow: its squared half width underflows"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            o.lorentzian_broaden(dist, fwhm, [0.0])


def test_lorentzian_far_from_every_atom_is_zero_without_a_warning():
    dist = o.EnergyDistribution((0.0,), (1.0,), "work")
    curve = o.lorentzian_broaden(dist, 1.2, [-1e300, 0.0, 1e300])
    assert curve[0] == curve[2] == 0.0
    assert curve[1] == pytest.approx(2.0 / (math.pi * 1.2), rel=1e-15)


@pytest.mark.parametrize(
    "energies, probabilities",
    [((math.nan,), (1.0,)), ((0.0,), (math.nan,)), ((math.inf,), (1.0,)),
     ((-math.inf, 0.0), (0.5, 0.5)), ((0.0, 1.0), (1.0, math.nan))],
)
def test_distribution_rejects_non_finite_atoms(energies, probabilities):
    with pytest.raises(ValueError, match="atoms must be finite"):
        o.EnergyDistribution(energies, probabilities, "work")


@pytest.mark.parametrize(
    "call, message",
    [(lambda: o.EnergyDistribution((0.0, 1.0), (1.0,), "work"),
      "energies and probabilities must have equal length"),
     (lambda: o.EnergyDistribution((), (), "work"), "distribution needs at least one atom"),
     (lambda: o.EnergyDistribution.from_atoms([[0.0, 1.0]], [[0.5, 0.5]], "work"),
      "energies and probabilities must be 1d and equal length"),
     (lambda: o.CharacteristicSamples([0.0, 1.0], [1.0]),
      "u grid and samples must be 1d and equal length"),
     (lambda: o.invert_characteristic(o.CharacteristicSamples(np.arange(1.0, 9.0), np.zeros(8))),
      "inversion recovered no atoms above threshold"),
     (lambda: o.invert_characteristic(o.CharacteristicSamples([0.0], [1.0])),
      "need at least two samples to invert")],
    ids=["unequal-lengths", "no-atoms", "2d-atoms", "unequal-samples", "zero-chi",
         "one-sample"],
)
def test_a_rejected_tpm_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "spacing, n_points, message",
    [
        (math.nan, 8, "energy spacing must be positive and finite, got nan"),
        (math.inf, 8, "energy spacing must be positive and finite, got inf"),
        (-1.0, 8, "energy spacing must be positive and finite, got -1.0"),
        (0.0, 8, "energy spacing must be positive and finite, got 0.0"),
        (1.0, 2.5, "grid point count must be an integer, got 2.5"),
        (1.0, 8.0, "grid point count must be an integer, got 8.0"),
        (1.0, 1, "need at least two grid points"),
        (5e-324, 8, "u spacing inf of this grid is not positive and finite"),
        (1e308, 2**20, "u spacing 0.0 of this grid is not positive and finite"),
    ],
)
def test_conjugate_u_grid_rejects_grids_that_are_not_finite_and_uniform(
    spacing, n_points, message
):
    with pytest.raises(ValueError, match=re.escape(message)):
        o.conjugate_u_grid(spacing, n_points)


def test_conjugate_u_grid_takes_numpy_integers():
    u = o.conjugate_u_grid(2.0, np.int64(4))
    np.testing.assert_array_equal(u, np.arange(4) * (2.0 * np.pi / 8.0))


@pytest.mark.parametrize(
    "u",
    [[math.nan] * 4, [0.0, math.nan, 2.0, 3.0], [0.0, 1.0, 2.0, math.nan],
     [0.0, 1.0, math.inf, 3.0], [0.0, math.inf, math.inf, math.inf]],
)
def test_inversion_rejects_a_grid_with_non_finite_points(u):
    samples = o.CharacteristicSamples(u, [1.0, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="u grid must be uniformly spaced and increasing"):
        o.invert_characteristic(samples)


@pytest.mark.parametrize("u", [[0.0, math.inf], [0.0, math.nan], [-math.inf, 0.0, 1.0]])
def test_characteristic_function_rejects_a_grid_with_non_finite_points(u):
    with pytest.raises(ValueError, match="u grid must be finite"):
        o.characteristic_function(o.EnergyDistribution((0.0, 1.0), (0.5, 0.5), "work"), u)


def test_an_overflowing_phase_is_rejected_without_a_warning():
    # 1e308 * 2 peV overflows; the suite turns any RuntimeWarning into an error
    dist = o.EnergyDistribution((-2.0, 2.0), (0.5, 0.5), "work")
    with pytest.raises(ValueError, match="chi samples must be finite"):
        o.characteristic_function(dist, [0.0, 1e308])


def test_a_grid_changed_in_place_is_checked_again():
    u = o.conjugate_u_grid(H * 0.4, 24)
    dist = o.engine_work_distribution(PROTOCOL, THERMAL_B, SWAP_100)
    samples = o.characteristic_function(dist, u)
    o.invert_characteristic(samples)
    u[5] += 0.5 * (u[1] - u[0])  # samples.u_per_pev is this array
    for chi in (samples, o.characteristic_function(dist, u)):
        with pytest.raises(ValueError, match="u grid must be uniformly spaced and increasing"):
            o.invert_characteristic(chi)
    # the u = 0 sample moves to index 1, where chi is not 1
    u = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([1.0, 0.5, 0.5, 0.5])
    o.CharacteristicSamples(u, values)
    u[:2] = 1.0, 0.0
    with pytest.raises(ValueError, match=re.escape("chi(0) must equal 1")):
        o.CharacteristicSamples(u, values)
    # -2 has no partner until it becomes -1, whose chi is not conj(chi(1))
    u = np.array([1.0, 0.0, -2.0, 3.0])
    values = np.array([0.5 + 0.1j, 1.0, 0.5 + 0.1j, 0.5])
    o.CharacteristicSamples(u, values)
    u[2] = -1.0
    with pytest.raises(ValueError, match=re.escape("chi(-u) must equal conj(chi(u))")):
        o.CharacteristicSamples(u, values)
    values[2] = 0.5 - 0.1j
    hits = tpm._grid_plan.cache_info().hits
    o.CharacteristicSamples(u, values)  # the same bytes: the plan is kept
    assert tpm._grid_plan.cache_info().hits == hits + 1


def _chi_by_outer(dist, u):
    """chi by a fresh phase table: np.outer, cos and sin on every call."""
    probs = np.asarray(dist.probabilities)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.outer(u, np.array(dist.energies_pev, dtype=float))
        return np.cos(phase) @ probs + 1j * (np.sin(phase) @ probs)


def test_characteristic_function_is_bit_identical_to_a_fresh_phase_table():
    rng = np.random.default_rng(20071017)
    negative_zeros = 0
    for trial in range(400):
        n = int(rng.integers(1, 12))
        scale = rng.choice([1e-9, 1.0, 30.0])
        energies = scale * rng.normal() + np.cumsum(rng.uniform(2e-9, 3.0 * scale, n))
        if trial % 4 == 0:  # an atom at -0.0 or 0.0, in turn
            energies -= energies[int(rng.integers(n))]
            energies[energies == 0.0] = -0.0 if trial % 8 else 0.0
        weights = rng.dirichlet(np.ones(n))
        dist = o.EnergyDistribution(tuple(energies.tolist()),
                                    tuple((weights / weights.sum()).tolist()), "work")
        u = rng.choice([0.5, 3.0]) * np.arange(int(rng.integers(1, 40))) - rng.choice([0.0, 5.0])
        negative_zeros += bool(np.signbit(dist.energies_pev).any())
        for call in range(3):  # the second call finds its table kept
            got = o.characteristic_function(dist, u)
            assert got.values.tobytes() == _chi_by_outer(dist, u).tobytes()
            if call == 1:  # the caller changes the grid in place
                u[int(rng.integers(len(u)))] += 0.25
    assert negative_zeros > 40, negative_zeros


def test_characteristic_function_checks_the_grid_before_its_table():
    dist = o.EnergyDistribution((-2.0, 2.0), (0.5, 0.5), "work")
    before = tpm._phase_table.cache_info()
    for u in ([0.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="u grid must be finite"):
            o.characteristic_function(dist, u)
    assert tpm._phase_table.cache_info() == before
    # an overflowing phase fails again once its table is kept
    for _ in range(2):
        with pytest.raises(ValueError, match="chi samples must be finite"):
            o.characteristic_function(dist, [0.0, 1e308])


def test_an_engine_keeps_its_atom_energies_at_every_duration():
    # the kept phase table serves every duration only because of this
    run_cfg = o.parse_config("")
    cfg = o.to_cycle_config(run_cfg)
    energies = {"work": set(), "heat": set()}
    for report in o.sweep_tau(cfg, run_cfg.tau_list_us):
        protocol = replace(cfg.protocol, tau_us=report.tau_us)
        for kind, route in (("work", o.engine_work_distribution),
                            ("heat", o.engine_heat_distribution)):
            dist = route(protocol, cfg.thermal, report.transition_prob)
            energies[kind].add(np.array(dist.energies_pev).tobytes())
    assert [len(v) for v in energies.values()] == [1, 1]


def _random_engine(rng, near_tolerance=False):
    # expanding, flat and compressing ramps.  One engine in five, and every
    # one drawn near the tolerance, has nu_i from 10^-12.5 to 10^-9 kHz (gaps
    # around the 1e-9 peV merge tolerance) and kT from 1e-12 to 1e-9 peV
    tiny = near_tolerance or rng.random() < 0.2
    nu_i = 10.0 ** rng.uniform(-12.5, -9.0) if tiny else rng.uniform(0.3, 6.0)
    nu_f = nu_i * rng.choice([1.0, rng.uniform(0.2, 0.99), rng.uniform(1.01, 5.0)])
    if tiny:
        kt_cold, kt_hot = 10.0 ** rng.uniform(-12.0, -9.0, 2)
    else:  # cold gap/kT from 0.05 to 60
        kt_cold = H * nu_i / (0.05 * 1200.0 ** rng.uniform())
        kt_hot = kt_cold * rng.uniform(1.0, 10.0)
    if rng.random() < 0.1:  # an infinitely hot bath now and then
        kt_hot = math.inf
    return o.DriveProtocol(nu_i, nu_f, rng.uniform(50.0, 800.0)), o.ThermalParams(kt_cold, kt_hot)


def _random_swap(rng):
    return float(rng.choice([0.0, 1.0, 0.5, rng.uniform(), rng.uniform() ** 12, 1.0 - 1e-17]))


def _outcome(route, *args):
    try:
        dist = route(*args)
    except ValueError as exc:
        return str(exc)
    return dist.kind, [repr(x) for x in dist.energies_pev], [repr(x) for x in dist.probabilities]


def test_engine_distributions_are_bit_identical_to_the_table_routes():
    rng = np.random.default_rng(20070501)
    swaps, flat, falling, tiny, errors = set(), 0, 0, 0, set()
    calls = []
    for _ in range(150):
        # four engines at four swap probabilities each, interleaved, so that
        # calls meet engines seen just before and engines not seen yet
        engines = [_random_engine(rng) for _ in range(4)]
        calls += [engine + (_random_swap(rng),) for _ in range(4) for engine in engines]
    for protocol, thermal, swap in calls:
        swaps.add(swap)
        flat += protocol.nu_final_khz == protocol.nu_initial_khz
        falling += protocol.nu_final_khz < protocol.nu_initial_khz
        tiny += H * protocol.nu_initial_khz < o.MERGE_TOLERANCE_PEV
        for got, expected in [
            (_outcome(o.engine_work_distribution, protocol, thermal, swap),
             _outcome(oracles.engine_work_distribution_by_table, protocol, thermal, swap)),
            (_outcome(o.engine_heat_distribution, protocol, thermal, swap),
             _outcome(oracles.engine_heat_distribution_by_populations, protocol, thermal, swap)),
        ]:
            assert got == expected, (protocol, thermal, swap)
            if isinstance(expected, str):
                errors.add(expected)
    assert {0.0, 1.0} <= swaps
    assert min(flat, falling, tiny) > 100, (flat, falling, tiny)
    # single-linkage clusters keep merged atoms apart, even near the tolerance
    assert not errors, errors


def test_engines_near_the_merge_tolerance_give_distributions():
    # gaps near the 1e-9 peV tolerance merge distinct history energies, and
    # cold baths give subnormal weights; every call gives a distribution
    rng = np.random.default_rng(20070502)
    merged = 0
    for _ in range(1500):
        protocol, thermal = _random_engine(rng, near_tolerance=True)
        swap = _random_swap(rng)
        work = o.engine_work_distribution(protocol, thermal, swap)
        o.engine_heat_distribution(protocol, thermal, swap)
        p = o.thermal_populations(protocol.nu_initial_khz, thermal.kt_cold_pev)
        q = o.thermal_populations(protocol.nu_final_khz, thermal.kt_hot_pev)
        delta_e, prob = oracles.enumerate_histories(p, q, swap, o.endpoint_spectra(protocol))
        # distinct history energies of positive weight that share one atom
        merged += len(set(delta_e[prob > 0.0].tolist())) > len(work.energies_pev)
    assert merged > 1000, merged


def test_the_tpm_routes_serve_an_engine_whose_cycle_is_degenerate():
    # gaps of ~1e-17 peV: the TPM routes only need the endpoint energies and
    # Gibbs populations, while the cycle's plan takes the endpoint
    # eigenvectors, which eigensystem's 1e-14 guard refuses; so the cycle
    # builds its engine plan apart from _engine_plan, and only when it runs
    protocol, thermal = o.DriveProtocol(1e-15, 2e-15, 100.0), o.ThermalParams(1.0, 2.0)
    for route in (o.engine_work_distribution, o.engine_heat_distribution):
        dist = route(protocol, thermal, 0.1)
        assert len(dist.energies_pev) == 1 and dist.probabilities == (1.0,)
        assert abs(dist.energies_pev[0]) < o.MERGE_TOLERANCE_PEV
    with pytest.raises(ValueError, match="degenerate Hamiltonian"):
        o.run_cycle(o.CycleConfig(protocol, thermal))


def test_an_invalid_engine_raises_on_every_call():
    # a gap that overflows makes the history energies inf - inf
    protocol = o.DriveProtocol(1e308, 1e308, 100.0)
    cold_at_zero = types.SimpleNamespace(kt_cold_pev=0.0, kt_hot_pev=40.5)
    for route in (o.engine_work_distribution, o.engine_heat_distribution):
        for _ in range(2):
            with pytest.raises(ValueError, match="atoms must be finite"):
                route(protocol, THERMAL_B, 0.3)
            with pytest.raises(ValueError, match="kT must be positive, got 0.0 peV"):
                route(PROTOCOL, cold_at_zero, 0.3)


@pytest.mark.parametrize("swap", [-0.1, 1.1, math.nan])
def test_engine_distributions_reject_a_transition_probability_out_of_range(swap):
    for route in (o.engine_work_distribution, o.engine_heat_distribution):
        with pytest.raises(ValueError, match=r"transition probability must lie in \[0, 1\]"):
            route(PROTOCOL, THERMAL_B, swap)


def _random_grid(rand):
    """u grids as callers build them and as they should not: conjugate grids
    from 0, symmetric and shifted grids, repeated, signed and perturbed
    zeros, u that are negatives of each other only to ~1e-13, and NaN."""
    n = rand.randrange(2, 24)
    du = rand.choice([0.3, 1e-3, 7.0, rand.uniform(1e-6, 10.0)])
    shape = rand.randrange(4)
    if shape == 0:
        u = [k * du for k in range(n)]
    elif shape == 1:
        u = [k * du for k in range(-(n // 2), n - n // 2)]
    elif shape == 2:
        start = rand.uniform(-3.0, 3.0)
        u = [start + k * du for k in range(n)]
    else:
        u = [rand.uniform(-3.0, 3.0) for _ in range(n)]
    for _ in range(rand.randrange(4)):
        extra = rand.choice([0.0, -0.0, 1e-16, -1e-16, 4e-13, -4e-13, 6e-13, -6e-13, math.nan])
        u.insert(rand.randrange(len(u) + 1), extra)
    if rand.random() < 0.15:  # partners that round together only sometimes
        u = [x + rand.choice([1e-13, -3e-13, 1e-11]) if rand.random() < 0.3 else x for x in u]
    return np.array(u)


def test_characteristic_samples_accept_and_reject_as_the_full_pairing_pass():
    rand = random.Random(20140930)
    verdicts = {}
    for _ in range(40_000):
        u = _random_grid(rand)
        energies = np.array([rand.gauss(0.0, 3.0) for _ in range(rand.randrange(1, 5))])
        weights = np.array([rand.random() for _ in energies])
        weights /= weights.sum()
        values = np.exp(1j * np.outer(np.where(np.isnan(u), 0.0, u), energies)) @ weights
        if rand.random() < 0.5:  # break chi(0), a conjugate pair, or nothing
            values[rand.randrange(len(u))] += rand.choice([1e-9, 1e-9j, -1e-9j, 2e-13j, 1e-11])
        if rand.random() < 0.05:  # or make one sample non-finite
            values[rand.randrange(len(u))] = rand.choice(
                [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)])
        expected = oracles.characteristic_samples_verdict(u, values)
        try:
            o.CharacteristicSamples(u, values)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (u.tolist(), values.tolist())
        negative = (np.round(u, 12) < 0.0).any()
        verdicts[negative, expected] = verdicts.get((negative, expected), 0) + 1
    # grids with and without a negative key accept and reject both ways
    for negative in (True, False):
        for expected in (None, "chi(0) must equal 1", "chi(-u) must equal conj(chi(u))",
                         "chi samples must be finite"):
            assert verdicts.get((negative, expected), 0) > 200, verdicts


@pytest.mark.parametrize("u, values, message", [
    ([0.0], [1.7e308 + 1.7e308j], "chi(0) must equal 1"),
    ([1.0, -1.0], [1.7e308 + 1.7e308j, 0.0], "chi(-u) must equal conj(chi(u))"),
])
def test_a_difference_too_large_for_abs_is_unequal(u, values, message):
    # Python's abs raises OverflowError on these finite differences; numpy's is inf
    assert oracles.characteristic_samples_verdict(u, values) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        o.CharacteristicSamples(u, values)


def _lattice_samples(rng):
    """chi of a random lattice distribution on a uniform grid whose energy
    spacing runs from below the merge tolerance to 10 peV, with noise that
    leaves weights slightly or clearly negative now and then."""
    n = int(rng.integers(2, 40))
    # just above the tolerance, rounding j dE can bring neighbours within it
    spacing = rng.choice([10.0 ** rng.uniform(-9.5, 1.0), 1e-9, 2e-9, 2.0000000001e-9,
                          1e-9 * (1.0 + rng.integers(1, 200) * 1e-15),
                          1.5e-9, rng.uniform(0.05, 3.0)])
    u0 = rng.choice([0.0, 0.0, rng.uniform(-2.0, 2.0)])
    u = u0 + np.arange(n) * (2.0 * np.pi / (n * spacing))
    window = np.arange(-(n // 2), n - n // 2)
    sites = rng.choice(window, size=int(rng.integers(1, n + 1)), replace=False)
    weights = rng.dirichlet(np.ones(len(sites))) ** rng.uniform(1.0, 4.0)
    weights /= weights.sum()
    values = np.exp(1j * np.outer(u, sites * spacing)) @ weights
    noise = rng.choice([0.0, 1e-14, 1e-13, 3e-12, 1e-9])
    values = values + noise * rng.normal(size=n)
    if noise:
        values[np.abs(u) < 1e-15] = 1.0
    return o.CharacteristicSamples(u, values)


def test_lattice_atoms_match_the_from_atoms_route():
    rng = np.random.default_rng(13086010)
    outcomes = {"direct": 0, "fallback": 0, "error": 0}
    for trial in range(3000):
        samples = _lattice_samples(rng)
        kind = "work" if trial % 50 else "entropy"
        try:
            expected = oracles.inversion_by_from_atoms(samples, kind)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                o.invert_characteristic(samples, kind)
            outcomes["error"] += 1
            continue
        got = o.invert_characteristic(samples, kind)
        # the lattice atoms are one-atom clusters of the same merge
        assert [repr(x) for x in got.energies_pev] == [repr(x) for x in expected.energies_pev]
        assert [repr(x) for x in got.probabilities] == [repr(x) for x in expected.probabilities]
        u = samples.u_per_pev
        spacing = 2.0 * np.pi / (len(u) * (u[1] - u[0]))
        outcomes["direct" if spacing > 2e-9 else "fallback"] += 1
        if spacing > 2e-9:  # the lattice values themselves
            sites = np.asarray(got.energies_pev) / spacing
            np.testing.assert_array_equal(np.round(sites) * spacing, got.energies_pev)
    assert min(outcomes.values()) > 100, outcomes


def _acceptance_engines():
    """The 1000 engines of the ``random_configurations`` fixture of
    ``test_acceptance.py``, drawn from its seed in its order, each with the
    transition probability of its Haar-random stroke unitary."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        nu1 = rng.uniform(0.5, 5.0)
        nu2 = nu1 + rng.uniform(0.1, 5.0)
        kt1 = rng.uniform(1.0, 30.0)
        kt2 = kt1 + rng.uniform(0.5, 60.0)
        protocol = o.DriveProtocol(nu1, nu2, 100.0)
        h_i, h_f = o.endpoint_hamiltonians(protocol)
        umap = o.UnitaryMap(oracles.haar_unitary(rng), protocol, 1)
        yield protocol, o.ThermalParams(kt1, kt2), o.transition_probability(umap, h_i, h_f)


def test_history_route_gives_the_mean_entropy_production_and_the_fluctuation_theorem():
    # tolerances: <sigma> against the heat route to rel 1e-12 (abs 1e-14),
    # <e^-sigma> against 1 to 1e-12
    for protocol, thermal, swap in _acceptance_engines():
        mean_sigma, mean_exp = oracles.history_entropy_production(protocol, thermal, swap)
        expected = o.entropy_production_drive(
            o.mean_heat_cold_closed_form(protocol, thermal, swap),
            o.mean_heat_hot_closed_form(protocol, thermal, swap),
            thermal,
        )
        assert mean_sigma == pytest.approx(expected, rel=1e-12, abs=1e-14)
        assert mean_exp == pytest.approx(1.0, rel=0.0, abs=1e-12)


@pytest.mark.parametrize(
    "nu, kt, tau",
    [
        ((2.0, 3.6), (6.6, 40.5), 100.0),
        ((2.0, 3.6), (0.2, 40.5), 300.0),
        ((1.3, 2.9), (6.6, 40.5), 700.0),
        # cold excited population 1.3e-318: e^-sigma overflows where the
        # history weight underflows
        ((2.0, 3.6), (0.0113, 40.5), 300.0),
    ],
)
def test_history_route_matches_the_cycle_report(nu, kt, tau):
    # same tolerances as over the random engines
    cfg = o.CycleConfig(o.DriveProtocol(*nu, tau), o.ThermalParams(*kt))
    report = o.run_cycle(cfg)
    mean_sigma, mean_exp = oracles.history_entropy_production(
        cfg.protocol, cfg.thermal, report.transition_prob
    )
    assert mean_sigma == pytest.approx(report.entropy_production, rel=1e-12, abs=1e-14)
    assert mean_exp == pytest.approx(1.0, rel=0.0, abs=1e-12)



# --- the per-point path of a duration scan ---------------------------------------

NU_STEP = 0.1  # kHz: the frequency lattice of the benchmark's tau_scan engines


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(math.log(0.1), math.log(60.0)),
       st.floats(1.5, 6.0), st.floats(0.0, 1.0))
def test_the_per_point_path_equals_from_atoms_of_its_raw_atoms(u_nu, u_ratio, log_x, hotter,
                                                                 swap):
    # engines over tau_scan's ranges: nu_i 1-3 kHz and nu_f/nu_i 1.2-2.4 on
    # its 0.1 kHz lattice, cold gap/kT 0.1-60, a hot bath 1.5-6 times hotter
    nu_i = round(1.0 + 2.0 * u_nu, 1)
    nu_f = round(nu_i * (1.2 + 1.2 * u_ratio), 1)
    kt_cold = H * nu_i / math.exp(log_x)
    protocol = o.DriveProtocol(nu_i, nu_f, 100.0)
    thermal = o.ThermalParams(kt_cold, kt_cold * hotter)
    for got, expected in [
        (_outcome(o.engine_work_distribution, protocol, thermal, swap),
         _outcome(oracles.engine_work_distribution_by_table, protocol, thermal, swap)),
        (_outcome(o.engine_heat_distribution, protocol, thermal, swap),
         _outcome(oracles.engine_heat_distribution_by_populations, protocol, thermal, swap)),
    ]:
        assert got == expected and not isinstance(got, str)
    # a lattice of h * 0.1 kHz, far above the merge tolerance: every kept
    # lattice atom is its own cluster
    u = o.conjugate_u_grid(H * NU_STEP, 2 * round((nu_i + nu_f) / NU_STEP) + 2)
    samples = o.characteristic_function(o.engine_work_distribution(protocol, thermal, swap), u)
    assert (_outcome(o.invert_characteristic, samples)
            == _outcome(oracles.inversion_by_from_atoms, samples))


def test_heat_weights_are_within_four_roundings_of_their_exact_values():
    # s[m] q[k] takes four roundings from its float inputs xi, p and q: the
    # stay probability 1 - xi, a product, the sum of s[m] and the product
    # with q[k]; the atom at 0 adds fsum's rounding of two such weights.
    # Over tau_scan's engine ranges, each atom stays within 4 units of
    # 2^-53 of its exact value
    rng = np.random.default_rng(20070503)
    worst = 0.0
    for _ in range(2000):
        nu_i = round(1.0 + 2.0 * rng.uniform(), 1)
        nu_f = round(nu_i * (1.2 + 1.2 * rng.uniform()), 1)
        kt_cold = H * nu_i / (0.1 * 600.0 ** rng.uniform())  # cold gap/kT 0.1-60
        thermal = o.ThermalParams(kt_cold, kt_cold * rng.uniform(1.5, 6.0))
        swap = _random_swap(rng)
        dist = o.engine_heat_distribution(o.DriveProtocol(nu_i, nu_f, 100.0), thermal, swap)
        p_0, p_1 = map(Fraction, o.thermal_populations(nu_i, thermal.kt_cold_pev))
        q_0, q_1 = map(Fraction, o.thermal_populations(nu_f, thermal.kt_hot_pev))
        xi = Fraction(swap)
        s_0, s_1 = (1 - xi) * p_0 + xi * p_1, xi * p_0 + (1 - xi) * p_1
        # heats -gap (m = 1, k = 0), 0 (m = k) and +gap (m = 0, k = 1)
        exact = (s_1 * q_0, s_0 * q_0 + s_1 * q_1, s_0 * q_1)
        assert len(dist.probabilities) == 3
        worst = max(worst, *(float(abs(Fraction(w) - e) / e) * 2.0**53
                             for w, e in zip(dist.probabilities, exact)))
    assert 0.0 < worst <= 4.0, worst


def _chi(energies, weights, u):
    """CharacteristicSamples of raw atoms, which may be negative or not sum
    to 1, on the grid u."""
    u = np.asarray(u, dtype=float)
    return o.CharacteristicSamples(u, np.exp(1j * np.outer(u, energies)) @ np.asarray(weights))


# the u grids of a coarse (1 peV) and a fine (1e-9 peV) energy lattice, and
# of a coarse one that starts past u = 0, where chi(0) is not checked
COARSE, FINE = o.conjugate_u_grid(1.0, 8), o.conjugate_u_grid(1e-9, 8)
PAST_ZERO = 0.37 + o.conjugate_u_grid(1.0, 8)
KIND = "kind must be one of ('work', 'heat'), got 'foo'"


@pytest.mark.parametrize(
    "call, message",
    [(lambda: o.EnergyDistribution((0.0, 1.0), (math.nan, 1.0), "work"), "atoms must be finite"),
     (lambda: o.EnergyDistribution.from_atoms([0.0, 1.0], [1.0, math.nan], "work"),
      "atoms must be finite"),
     (lambda: o.EnergyDistribution((0.0, 1.0), (-2e-12, 1.0 + 2e-12), "work"),
      "probabilities must be nonnegative"),
     (lambda: o.EnergyDistribution.from_atoms([0.0, 1.0], [-2e-12, 1.0 + 2e-12], "work"),
      "probabilities must be nonnegative"),
     (lambda: o.invert_characteristic(_chi([0.0, 1.0], [1.0 + 2e-12, -2e-12], COARSE)),
      "probabilities must be nonnegative"),
     (lambda: o.invert_characteristic(_chi([0.0, 1e-9], [1.0 + 2e-12, -2e-12], FINE)),
      "probabilities must be nonnegative"),
     (lambda: o.EnergyDistribution((0.0,), (1.0,), "foo"), KIND),
     (lambda: o.EnergyDistribution.from_atoms([0.0], [1.0], "foo"), KIND),
     (lambda: o.invert_characteristic(_chi([0.0], [1.0], COARSE), "foo"), KIND),
     (lambda: o.invert_characteristic(_chi([0.0], [1.0], FINE), "foo"), KIND),
     (lambda: o.EnergyDistribution((0.0, 1.0), (0.5, 0.5 + 2e-12), "work"),
      "probabilities sum to 1.000000000002, expected 1"),
     (lambda: o.EnergyDistribution.from_atoms([1.0, 0.0], [0.5 + 2e-12, 0.5], "work"),
      "probabilities sum to 1.000000000002, expected 1"),
     (lambda: o.invert_characteristic(_chi([0.0, 1.0], [0.5, 0.5 + 2e-12], PAST_ZERO)),
      "probabilities sum to 1.000000000002, expected 1"),
     (lambda: o.EnergyDistribution.from_atoms([0.0, 1.0], [0.0, -0.0], "work"),
      "distribution needs at least one atom"),
     (lambda: o.invert_characteristic(_chi([0.0], [1e-15], PAST_ZERO)),
      "inversion recovered no atoms above threshold")],
    ids=["nan-weight", "nan-raw-weight", "negative-weight", "negative-raw-weight",
         "negative-coarse-inversion", "negative-fine-inversion", "kind", "raw-kind",
         "coarse-inversion-kind", "fine-inversion-kind", "sum", "raw-sum", "inversion-sum",
         "no-raw-weight", "no-inverted-weight"],
)
def test_each_check_of_the_per_point_path_raises_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
