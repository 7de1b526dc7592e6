import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # the compression drive, written out on its own, is the documented
    # recipe -drive_hamiltonian(tau - t, p)
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    for t in (0.0, 12.5, 50.0, 99.0, 100.0):
        np.testing.assert_allclose(
            oracles.drive_hamiltonian(t, 2.0, 3.6, 100.0, compression=True),
            -o.drive_hamiltonian(100.0 - t, p),
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
    want = o.drive_hamiltonian(100.0, o.DriveProtocol(2.0, 3.6, 100.0))
    for tau in np.arange(100.0, 701.0, 10.0).tolist():
        got = o.drive_hamiltonian(tau, o.DriveProtocol(2.0, 3.6, tau))
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


@pytest.mark.parametrize("half_gap, degenerate", [(1e-14, False), (2.5e-15, True)])
def test_the_degenerate_line_sits_at_a_gap_of_1e_14(half_gap, degenerate):
    h = np.diag([half_gap, -half_gap]).astype(complex)
    if degenerate:
        with pytest.raises(ValueError, match="^degenerate Hamiltonian$"):
            o.eigensystem(h)
    else:
        assert o.eigensystem(h)[0].tolist() == [-half_gap, half_gap]


def test_eigensystem_rejects_non_hermitian_input():
    with pytest.raises(ValueError):
        o.eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


EPS = np.finfo(float).eps
unit_entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@st.composite
def hermitian_matrices(draw):
    """A Hermitian 2x2 matrix with entries in [-1, 1] scaled by 10^k,
    -150 <= k <= 150; now and then one entry is made non-finite, or the
    upper triangle is moved off the lower one's conjugate, by 1e-11 (not
    Hermitian) or by 1e-13 (Hermitian to the 1e-12 tolerance, and only the
    lower triangle is read)."""
    a, d, c_re, c_im = (draw(unit_entries) for _ in range(4))
    lower = complex(c_re, c_im)
    h = 10.0 ** draw(st.floats(-150.0, 150.0)) * np.array(
        [[a, lower.conjugate()], [lower, d]], dtype=np.complex128)
    fault = draw(st.sampled_from([None] * 7 + ["nan", "inf", 1e-11, 1e-13]))
    if isinstance(fault, float):
        h[0, 1] += fault
    elif fault is not None:
        h[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = float(fault)
    return h


@settings(max_examples=400, derandomize=True, deadline=None)
@given(hermitian_matrices())
# the default engine's ends: -(gap/2) sigma_x, and -(gap/2) sigma_y with its
# cos(pi/2) ~ 6e-17 sigma_x part, where eigh gave a round-off real part of
# 1.1e-16 in the lower components for the exact 4.3e-17
@example(o.endpoint_hamiltonians(o.DriveProtocol(2.0, 3.6, 100.0))[0])
@example(o.endpoint_hamiltonians(o.DriveProtocol(2.0, 3.6, 100.0))[1])
# a - d, the squares and the gap overflow, the energies +-1.118e308 do not
@example(np.array([[1e308, 5e307], [5e307, -1e308]], dtype=np.complex128))
def test_the_closed_form_eigensystem_agrees_with_lapack(h):
    try:
        with np.errstate(over="ignore"):  # eigh's gap may overflow as well
            want, _ = oracles.eigensystem_eigh(h)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            o.eigensystem(h)
        assert str(got.value) == str(exc)
        return
    energies, vectors = o.eigensystem(h)
    # the matrix both read: the real diagonal and the lower triangle
    seen = np.diag(h.diagonal().real) + np.tril(h, -1) + np.tril(h, -1).conj().T
    norm = np.max(np.abs(want))  # the spectral norm
    assert energies[0] < energies[1]
    assert np.max(np.abs(energies - want)) <= 8 * EPS * norm
    for k in range(2):
        residual = seen @ vectors[:, k] - energies[k] * vectors[:, k]
        assert np.linalg.norm(residual) <= 8 * EPS * norm
        lead = vectors[:, k][np.argmax(np.abs(vectors[:, k]) > 1e-12)]
        assert lead.real > 0.0 and abs(lead.imag) <= 2 * EPS
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(2))) <= 8 * EPS


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
            protocol = o.DriveProtocol(nu_i, nu_f, tau)
            for t in np.linspace(0.0, tau, 7):
                # the expansion drive and the compression drive
                for h in (o.drive_hamiltonian(t, protocol),
                          -o.drive_hamiltonian(tau - t, protocol)):
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
    # the TPM routes take these pairs unchecked: at every edge of a splitting
    # and a temperature, each is nonnegative and sums to 1
    edges = (5e-324, 1e-300, 1e-12, 0.2, 6.6, 1e12, 1e300, 1.7e308)
    for nu in edges:
        for kt in (*edges, math.inf):
            ground, excited = o.thermal_populations(nu, kt)
            assert ground >= 0.0 and excited >= 0.0, (nu, kt)
            assert abs(ground + excited - 1.0) <= 1e-15, (nu, kt)


def test_polarization_is_half_argument_tanh():
    assert o.polarization(2.0, 6.6) == pytest.approx(
        math.tanh(o.PLANCK_PEV_PER_KHZ * 2.0 / (2 * 6.6)), abs=1e-15
    )
    assert o.polarization(2.0, math.inf) == 0.0
    # small gap/kT: 1 - 2 p_excited kept only ~4 digits at 1e-12
    for x in (1e-12, 1e-9, 1e-6):
        kt = o.PLANCK_PEV_PER_KHZ * 2.0 / x
        assert o.polarization(2.0, kt) == pytest.approx(math.tanh(x / 2), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kt", [1.0, math.inf])
def test_polarization_rejects_a_nonpositive_splitting_at_every_temperature(kt):
    # an infinite bath checks the splitting too, as thermal_populations does
    with pytest.raises(ValueError, match="splitting frequency must be positive"):
        o.polarization(-1.0, kt)


def test_populations_and_polarization_past_exp_overflow():
    # gap/kT = 1000: exp(gap/kT) is beyond the largest double, and the
    # excited weight exp(-1000) is below the smallest one
    kt = o.PLANCK_PEV_PER_KHZ * 2.0 / 1000.0
    assert o.thermal_populations(2.0, kt) == (1.0, 0.0)
    assert o.polarization(2.0, kt) == 1.0


@given(st.floats(min_value=1.0, max_value=100.0))
def test_thermal_populations_follow_the_boltzmann_ratio(kt_pev):
    p0, p1 = o.thermal_populations(2.0, kt_pev)
    assert math.log(p0 / p1) == pytest.approx(o.PLANCK_PEV_PER_KHZ * 2.0 / kt_pev, rel=1e-9)


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


@pytest.mark.parametrize(
    "call, message",
    [(lambda: o.gibbs_state(np.eye(3), 1.0), "expected a 2x2 matrix, got shape (3, 3)"),
     (lambda: o.eigensystem(np.full((2, 2), np.nan)), "matrix has non-finite entries"),
     (lambda: o.gibbs_state(np.full((2, 2), np.nan), 1.0), "matrix has non-finite entries"),
     (lambda: o.eigensystem(np.diag([np.inf, -np.inf])), "matrix has non-finite entries"),
     (lambda: o.gibbs_state(np.diag([np.inf, -np.inf]), 1.0), "matrix has non-finite entries"),
     (lambda: o.polarization(math.nan, 1.0), "splitting frequency must be positive, got nan kHz"),
     (lambda: o.thermal_populations(math.nan, 1.0),
      "splitting frequency must be positive, got nan kHz"),
     (lambda: o.thermal_populations(2.0, math.nan), "kT must be positive, got nan peV"),
     (lambda: o.polarization(2.0, 0.0), "kT must be positive, got 0.0 peV"),
     (lambda: o.gibbs_state(o.PAULI_Z, math.nan), "kT must be positive, got nan peV"),
     (lambda: o.gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 6.6),
      "matrix is not Hermitian"),
     (lambda: o.gibbs_state(3.0 * o.IDENTITY, 6.6), "degenerate Hamiltonian"),
     (lambda: o.DriveProtocol(math.nan, 3.6, 100.0),
      "drive frequencies must be positive and finite, got (nan, 3.6) kHz"),
     (lambda: o.DriveProtocol(2.0, math.inf, 100.0),
      "drive frequencies must be positive and finite, got (2.0, inf) kHz"),
     (lambda: o.ThermalParams(math.nan, 40.5), "kT (cold) must be positive, got nan peV"),
     (lambda: o.ThermalParams(6.6, math.nan), "kT (hot) must be positive, got nan peV"),
     (lambda: o.gap_frequency(math.nan, o.DriveProtocol(2.0, 3.6, 100.0)),
      "time nan us outside the drive window [0, 100.0] us"),
     (lambda: o.gap_frequency(100.1, o.DriveProtocol(2.0, 3.6, 100.0)),
      "time 100.1 us outside the drive window [0, 100.0] us"),
     (lambda: o.drive_hamiltonian(math.nan, o.DriveProtocol(2.0, 3.6, 100.0)),
      "time nan us outside the drive window [0, 100.0] us")],
    ids=["gibbs-3x3", "nan-eigensystem", "nan-gibbs", "inf-eigensystem", "inf-gibbs",
         "nan-polarization", "nan-populations", "nan-populations-kt", "zero-polarization-kt",
         "nan-gibbs-kt", "non-hermitian-gibbs", "degenerate-gibbs", "nan-initial-frequency",
         "infinite-final-frequency", "nan-cold-bath", "nan-hot-bath", "nan-time",
         "late-time", "nan-drive-time"],
)
def test_a_rejected_spin_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_thermal_params_validation():
    with pytest.raises(ValueError):
        o.ThermalParams(0.0, 40.5)
    with pytest.raises(ValueError):
        o.ThermalParams(6.6, -2.0)
    # infinite hot bath is allowed
    o.ThermalParams(6.6, math.inf)
