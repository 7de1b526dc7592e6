import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ottospin as o
import oracles


def test_planck_constant_pins_the_unit_system():
    assert o.PLANCK_PEV_PER_KHZ == 4.135667696
    assert o.KHZ_US == 1e-3


def test_pauli_matrices_are_involutions_and_read_only():
    for sigma in (o.PAULI_X, o.PAULI_Y, o.PAULI_Z):
        np.testing.assert_allclose(sigma @ sigma, np.eye(2), atol=1e-15)
    with pytest.raises(ValueError):
        o.PAULI_X[0, 0] = 5.0


def test_gap_frequency_linear_ramp():
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    assert o.gap_frequency(0.0, p) == 2.0
    assert o.gap_frequency(100.0, p) == 3.6
    assert o.gap_frequency(50.0, p) == pytest.approx(2.8, abs=1e-15)


def test_gap_frequency_compression_runs_the_ramp_backwards():
    p = o.DriveProtocol(2.0, 3.6, 100.0, o.Phase.COMPRESSION)
    assert o.gap_frequency(0.0, p) == 3.6
    assert o.gap_frequency(100.0, p) == 2.0


def test_gap_frequency_rejects_times_outside_the_stroke():
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    with pytest.raises(ValueError):
        o.gap_frequency(-1.0, p)
    with pytest.raises(ValueError):
        o.gap_frequency(100.1, p)


def test_drive_hamiltonian_endpoints():
    # At t=0 the expansion drive points along -x with the initial gap; at t=tau
    # it points along -y with the final gap.
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    h0 = o.drive_hamiltonian(0.0, p)
    np.testing.assert_allclose(
        h0, -0.5 * o.PLANCK_PEV_PER_KHZ * 2.0 * o.PAULI_X, atol=1e-15
    )
    h1 = o.drive_hamiltonian(100.0, p)
    np.testing.assert_allclose(
        h1, -0.5 * o.PLANCK_PEV_PER_KHZ * 3.6 * o.PAULI_Y, atol=1e-12
    )


def test_drive_hamiltonian_compression_is_reversed_and_negated():
    fwd = o.DriveProtocol(2.0, 3.6, 100.0)
    rev = o.DriveProtocol(2.0, 3.6, 100.0, o.Phase.COMPRESSION)
    for t in (0.0, 12.5, 50.0, 99.0, 100.0):
        np.testing.assert_allclose(
            o.drive_hamiltonian(t, rev),
            -o.drive_hamiltonian(100.0 - t, fwd),
            atol=1e-12,
        )


def test_drive_hamiltonian_matches_independent_formula():
    p = o.DriveProtocol(1.7, 4.2, 350.0)
    for t in np.linspace(0.0, 350.0, 23):
        np.testing.assert_allclose(
            o.drive_hamiltonian(t, p),
            oracles.drive_hamiltonian(t, 1.7, 4.2, 350.0),
            atol=1e-14,
        )


def test_ramp_end_hamiltonian_has_the_same_bits_for_every_duration():
    # a sweep anchored at one duration and a one-duration run must see the
    # same hot Hamiltonian, hence the same hot Gibbs state
    for phase, t_end in ((o.Phase.EXPANSION, 1.0), (o.Phase.COMPRESSION, 0.0)):
        want = o.drive_hamiltonian(100.0 * t_end, o.DriveProtocol(2.0, 3.6, 100.0, phase))
        for tau in np.arange(100.0, 701.0, 10.0).tolist():
            got = o.drive_hamiltonian(tau * t_end, o.DriveProtocol(2.0, 3.6, tau, phase))
            assert np.array_equal(got, want), tau


def test_eigenvalue_spread_equals_planck_times_gap_frequency():
    # The spectral gap must track h*nu(t) exactly along the whole ramp.
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    for t in np.linspace(0.0, 100.0, 1000):
        energies, _ = o.eigensystem(o.drive_hamiltonian(t, p))
        spread = energies[1] - energies[0]
        assert abs(spread - o.PLANCK_PEV_PER_KHZ * o.gap_frequency(t, p)) < 1e-12


def test_eigensystem_orders_and_phases_deterministically():
    h = o.drive_hamiltonian(37.0, o.DriveProtocol(2.0, 3.6, 100.0))
    energies, vectors = o.eigensystem(h)
    assert energies[0] < energies[1]
    # columns orthonormal
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)
    # reconstruction
    np.testing.assert_allclose(
        vectors @ np.diag(energies) @ vectors.conj().T, h, atol=1e-12
    )
    # first significant component of each column is real and positive
    for k in range(2):
        col = vectors[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eigensystem_of_initial_drive_hamiltonian():
    h = -0.5 * o.PLANCK_PEV_PER_KHZ * 2.0 * o.PAULI_X
    energies, _ = o.eigensystem(h)
    np.testing.assert_allclose(energies, [-4.135667696, 4.135667696], atol=1e-9)


def test_eigensystem_rejects_degenerate_input():
    with pytest.raises(ValueError, match="degenerate Hamiltonian"):
        o.eigensystem(np.zeros((2, 2)))


def test_eigensystem_rejects_non_hermitian_input():
    with pytest.raises(ValueError):
        o.eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gibbs_state_cold_bath_populations():
    # kT = 6.6 peV against the 2.0 kHz gap gives roughly 78/22 populations.
    h = -0.5 * o.PLANCK_PEV_PER_KHZ * 2.0 * o.PAULI_X
    rho = o.gibbs_state(h, 6.6)
    energies, vectors = o.eigensystem(h)
    pops = np.real(np.diag(vectors.conj().T @ rho @ vectors))
    assert pops[0] == pytest.approx(0.78, abs=0.01)
    assert pops[1] == pytest.approx(0.22, abs=0.01)


def test_gibbs_state_hot_bath_populations():
    h = -0.5 * o.PLANCK_PEV_PER_KHZ * 3.6 * o.PAULI_Z
    rho = o.gibbs_state(h, 21.5)
    pops = np.sort(np.real(np.linalg.eigvalsh(rho)))[::-1]
    assert pops[0] == pytest.approx(0.667, abs=0.01)
    assert pops[1] == pytest.approx(0.333, abs=0.01)


def test_gibbs_state_infinite_temperature_is_maximally_mixed():
    h = -0.5 * o.PLANCK_PEV_PER_KHZ * 2.0 * o.PAULI_X
    np.testing.assert_allclose(o.gibbs_state(h, math.inf), np.eye(2) / 2, atol=1e-15)


def test_gibbs_state_is_a_valid_state():
    h = o.drive_hamiltonian(41.0, o.DriveProtocol(2.0, 3.6, 100.0))
    rho = o.gibbs_state(h, 6.6)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > 0.0
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)


def test_gibbs_state_of_drive_hamiltonians_matches_the_eigendecomposition_route():
    for nu_i, nu_f in ((2.0, 3.6), (0.5, 9.0), (3.6, 2.0)):
        for tau in (100.0, 240.0, 700.0):
            for phase in o.Phase:
                protocol = o.DriveProtocol(nu_i, nu_f, tau, phase)
                for t in np.linspace(0.0, tau, 7):
                    h = o.drive_hamiltonian(t, protocol)
                    for kt in (0.01, 0.2, 6.6, 40.5, 1e4):
                        np.testing.assert_allclose(
                            o.gibbs_state(h, kt), oracles.gibbs_state_eigh(h, kt),
                            rtol=0.0, atol=1e-14,
                        )


def test_gibbs_state_of_random_hamiltonians_matches_the_eigendecomposition_route():
    # the eigh route's own error is eps * max|H_ij| / gap; a trace part
    # raises max|H_ij| without changing the state
    rng = np.random.default_rng(160)
    eps = np.finfo(float).eps
    for _ in range(2000):
        h0 = rng.normal() * 10.0 ** rng.uniform(-3.0, 3.0)
        field = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        h = h0 * o.IDENTITY + np.einsum(
            "i,ijk->jk", field, np.stack([o.PAULI_X, o.PAULI_Y, o.PAULI_Z])
        )
        gap = 2.0 * np.linalg.norm(field)
        kt = gap / rng.uniform(1e-3, 800.0)
        np.testing.assert_allclose(
            o.gibbs_state(h, kt), oracles.gibbs_state_eigh(h, kt),
            rtol=0.0, atol=64.0 * eps * np.abs(h).max() / gap,
        )


def test_gibbs_state_rejects_degenerate_and_non_hermitian_input():
    with pytest.raises(ValueError, match="degenerate Hamiltonian"):
        o.gibbs_state(3.0 * o.IDENTITY, 6.6)
    with pytest.raises(ValueError, match="not Hermitian"):
        o.gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 6.6)
    with pytest.raises(ValueError, match="kT must be positive"):
        o.gibbs_state(o.PAULI_Z, 0.0)


def test_thermal_populations_match_gibbs_diagonal():
    p0, p1 = o.thermal_populations(2.0, 6.6)
    q0, q1 = oracles.thermal_populations(2.0, 6.6)
    assert p0 == pytest.approx(q0, abs=1e-15)
    assert p1 == pytest.approx(q1, abs=1e-15)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)


def test_polarization_is_half_argument_tanh():
    assert o.polarization(2.0, 6.6) == pytest.approx(
        math.tanh(o.PLANCK_PEV_PER_KHZ * 2.0 / (2 * 6.6)), abs=1e-15
    )
    assert o.polarization(2.0, math.inf) == 0.0


def test_populations_and_polarization_past_exp_overflow():
    # gap/kT = 1000: exp(gap/kT) is beyond the largest double, and the
    # excited weight exp(-1000) is below the smallest one
    kt = o.PLANCK_PEV_PER_KHZ * 2.0 / 1000.0
    assert o.thermal_populations(2.0, kt) == (1.0, 0.0)
    assert o.polarization(2.0, kt) == 1.0


def test_spin_temperature_recovers_cold_bath_example():
    kt = o.spin_temperature(0.78, 0.22, 2.0)
    assert kt == pytest.approx(oracles.SPIN_TEMPERATURE_COLD_PEV, abs=1e-12)
    assert kt == pytest.approx(6.6, abs=0.1)


def test_spin_temperature_recovers_hot_bath_example():
    kt = o.spin_temperature(0.67, 0.33, 3.6)
    assert kt == pytest.approx(oracles.SPIN_TEMPERATURE_HOT_PEV, abs=1e-12)
    assert kt == pytest.approx(21.5, abs=0.5)


def test_spin_temperature_renormalizes_unnormalized_pairs_with_warning():
    # (0.60, 0.42) sums to 1.02; the ratio is what matters, so the value must
    # agree with the normalized pair and a warning must be emitted.
    with pytest.warns(UserWarning):
        kt = o.spin_temperature(0.60, 0.42, 3.6)
    assert kt == pytest.approx(o.spin_temperature(0.60 / 1.02, 0.42 / 1.02, 3.6), rel=1e-12)
    assert kt == pytest.approx(40.5, abs=3.7)


def test_spin_temperature_rejects_inverted_populations():
    with pytest.raises(ValueError, match="non-positive-temperature populations"):
        o.spin_temperature(0.4, 0.6, 2.0)
    with pytest.raises(ValueError, match="non-positive-temperature populations"):
        o.spin_temperature(0.5, 0.5, 2.0)


def test_spin_temperature_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        o.spin_temperature(0.7, 0.3, 0.0)


def test_spin_temperature_diverges_toward_equal_populations():
    assert o.spin_temperature(0.5001, 0.4999, 2.0) > o.spin_temperature(0.6, 0.4, 2.0) > 0


@given(st.floats(min_value=1.0, max_value=100.0))
def test_spin_temperature_round_trips_thermal_populations(kt_pev):
    p0, p1 = o.thermal_populations(2.0, kt_pev)
    assert o.spin_temperature(p0, p1, 2.0) == pytest.approx(kt_pev, rel=1e-9)


@given(
    st.floats(min_value=0.2, max_value=8.0),
    st.floats(min_value=0.2, max_value=8.0),
    st.floats(min_value=1.0, max_value=120.0),
)
def test_polarization_equals_population_difference(nu1, nu2, kt):
    nu = max(nu1, nu2)
    p0, p1 = o.thermal_populations(nu, kt)
    assert o.polarization(nu, kt) == pytest.approx(p0 - p1, abs=1e-12)


def test_drive_protocol_validation():
    with pytest.raises(ValueError):
        o.DriveProtocol(0.0, 3.6, 100.0)
    with pytest.raises(ValueError):
        o.DriveProtocol(2.0, -1.0, 100.0)
    with pytest.raises(ValueError):
        o.DriveProtocol(2.0, 3.6, 0.0)


def test_drive_protocol_compression_factor():
    assert o.DriveProtocol(2.0, 3.6, 100.0).compression_factor == pytest.approx(1.8)


def test_thermal_params_validation():
    with pytest.raises(ValueError):
        o.ThermalParams(0.0, 40.5)
    with pytest.raises(ValueError):
        o.ThermalParams(6.6, -2.0)
    # infinite hot bath is allowed
    o.ThermalParams(6.6, math.inf)
