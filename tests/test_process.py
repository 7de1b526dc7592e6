import numpy as np
import pytest

import ottospin as o
import oracles

PROTOCOL = o.DriveProtocol(2.0, 3.6, 100.0)


def _random_state(rng):
    u = oracles.haar_unitary(rng)
    return u @ np.diag(rng.dirichlet([2.0, 2.0])) @ u.conj().T


def _amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], complex)
    return o.ProcessMatrix(oracles.process_from_kraus([k0, k1]))


def test_identity_process_is_a_single_corner_entry():
    y = o.identity_process().matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(y, expected, atol=1e-15)


def test_bit_flip_unitary_occupies_the_x_slot():
    y = o.choi_from_unitary(o.PAULI_X.astype(complex)).matrix
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(y, expected, atol=1e-15)


def test_drive_process_matrix_is_real_and_rank_one():
    y = o.choi_from_unitary(o.evolve_unitary(PROTOCOL)).matrix
    assert np.max(np.abs(y.imag)) < 1e-9
    eigs = np.sort(np.linalg.eigvalsh(y))
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(eigs[:-1])) < 1e-10


def test_process_matrices_of_unitaries_are_real():
    rng = np.random.default_rng(13)
    for _ in range(20):
        y = o.choi_from_unitary(oracles.haar_unitary(rng)).matrix
        assert np.max(np.abs(y.imag)) < 1e-9


def test_apply_process_reproduces_direct_conjugation():
    rng = np.random.default_rng(2)
    u = o.evolve_unitary(PROTOCOL)
    y = o.choi_from_unitary(u)
    for _ in range(10):
        rho = _random_state(rng)
        np.testing.assert_allclose(
            o.apply_process(y, rho), o.propagate_state(rho, u), atol=1e-12
        )


def test_depolarizing_process_erases_every_input():
    rng = np.random.default_rng(8)
    y = o.depolarizing_process()
    for _ in range(5):
        np.testing.assert_allclose(
            o.apply_process(y, _random_state(rng)), np.eye(2) / 2, atol=1e-12
        )


def test_unitaries_and_their_mixtures_are_unital():
    rng = np.random.default_rng(21)
    a = o.choi_from_unitary(oracles.haar_unitary(rng))
    b = o.choi_from_unitary(oracles.haar_unitary(rng))
    assert o.unitality_defect(a) < 1e-10
    assert o.unitality_defect(o.mix_processes(a, b, 0.3)) < 1e-10


def test_amplitude_damping_defect_equals_the_damping_rate():
    # E(I/2) = I/2 + (gamma/2) sigma_z, so E(I) - I has max entry gamma
    for gamma in (0.1, 0.35, 0.8):
        assert o.unitality_defect(_amplitude_damping(gamma)) == pytest.approx(
            gamma, abs=1e-12
        )


def test_process_from_kraus_agrees_with_unitary_construction():
    rng = np.random.default_rng(31)
    u = oracles.haar_unitary(rng)
    np.testing.assert_allclose(
        oracles.process_from_kraus([u]), o.choi_from_unitary(u).matrix, atol=1e-12
    )


def test_trace_distance_is_zero_on_itself_and_symmetric():
    y = o.choi_from_unitary(o.evolve_unitary(PROTOCOL))
    d = o.depolarizing_process()
    assert o.process_trace_distance(y, y) == 0.0
    assert o.process_trace_distance(y, d) == pytest.approx(
        o.process_trace_distance(d, y), abs=1e-12
    )


def test_trace_distance_identity_to_depolarizing_is_three_quarters():
    dist = o.process_trace_distance(o.identity_process(), o.depolarizing_process())
    assert dist == pytest.approx(oracles.DISTANCE_IDENTITY_DEPOLARIZING, abs=1e-12)


def test_trace_distance_matches_singular_value_oracle():
    rng = np.random.default_rng(43)
    a = o.choi_from_unitary(oracles.haar_unitary(rng))
    b = o.choi_from_unitary(oracles.haar_unitary(rng))
    expected = 0.5 * oracles.trace_norm_svd(a.matrix - b.matrix)
    assert o.process_trace_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_trace_distance_grows_with_depolarizing_weight():
    ideal = o.choi_from_unitary(o.evolve_unitary(PROTOCOL))
    noisy = o.depolarizing_process()
    dists = [
        o.process_trace_distance(o.mix_processes(ideal, noisy, w), ideal)
        for w in (0.0, 0.1, 0.2, 0.4)
    ]
    assert dists[0] == 0.0
    assert all(a < b for a, b in zip(dists, dists[1:]))


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(55)
    for _ in range(10):
        a = o.choi_from_unitary(oracles.haar_unitary(rng))
        b = o.choi_from_unitary(oracles.haar_unitary(rng))
        c = o.choi_from_unitary(oracles.haar_unitary(rng))
        assert o.process_trace_distance(a, c) <= (
            o.process_trace_distance(a, b) + o.process_trace_distance(b, c) + 1e-12
        )


def test_round_trip_drive_composes_to_the_identity_process():
    u = o.evolve_unitary(PROTOCOL)
    v = o.evolve_unitary(o.DriveProtocol(2.0, 3.6, 100.0, o.Phase.COMPRESSION))
    composite = o.choi_from_unitary(v.matrix @ u.matrix)
    assert o.process_trace_distance(composite, o.identity_process()) < 1e-8


def test_process_matrix_validation():
    with pytest.raises(ValueError):
        o.ProcessMatrix(np.eye(3, dtype=complex))  # wrong shape
    bad_hermitian = np.zeros((4, 4), complex)
    bad_hermitian[0, 1] = 1.0
    with pytest.raises(ValueError):
        o.ProcessMatrix(bad_hermitian)
    not_tp = np.zeros((4, 4), complex)
    not_tp[0, 0] = 0.5  # trace-decreasing
    with pytest.raises(ValueError):
        o.ProcessMatrix(not_tp)
    negative = np.diag([1.25, -0.25, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        o.ProcessMatrix(negative)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: o.choi_from_unitary(np.full((2, 2), np.nan)), "input must be a 2x2 unitary"),
     (lambda: o.ProcessMatrix(np.full((4, 4), np.nan)), "process matrix must be Hermitian")],
    ids=["nan-unitary", "nan-process-matrix"],
)
def test_a_rejected_process_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_choi_rejects_non_unitary_input():
    with pytest.raises(ValueError):
        o.choi_from_unitary(np.array([[1.0, 0.0], [0.0, 0.5]], complex))


def test_mix_processes_validates_weight():
    a = o.identity_process()
    b = o.depolarizing_process()
    with pytest.raises(ValueError):
        o.mix_processes(a, b, 1.5)
