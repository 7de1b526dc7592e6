import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ottospin as o
import oracles
from ottospin.process import _eigenvalues

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
    v = oracles.ode_unitary(2.0, 3.6, 100.0, compression=True)
    composite = o.choi_from_unitary(v @ u.matrix)
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


EPS = np.finfo(float).eps
#: Eigenvalues of the Jacobi rotations and of LAPACK agree to this many
#: eps * ||M||_F: the worst of 12 000 random matrices of the six kinds below
#: was 5.6, and against 50-digit mpmath there Jacobi missed by 0.6, LAPACK
#: by 5.0.
AGREEMENT = 8
unit_entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
KINDS = ("complex", "real", "rank-one", "degenerate", "diagonal", "zero")


@st.composite
def hermitian_4x4(draw):
    """A Hermitian 4x4 matrix of one of ``KINDS``, with entries in [-1, 1]
    scaled by 2^k, |k| <= 1000, then now and then shifted by -delta I with
    delta near the -1e-10 line of the semidefinite check.  The degenerate
    kind is x I plus a rank-one matrix: three equal eigenvalues."""
    kind = draw(st.sampled_from(KINDS))
    m = np.zeros((4, 4), dtype=np.complex128)
    if kind in ("complex", "real"):
        for q in range(4):
            for p in range(q):
                m[q, p] = complex(draw(unit_entries),
                                  draw(unit_entries) if kind == "complex" else 0.0)
        m += np.diag([draw(unit_entries) for _ in range(4)])
    elif kind in ("rank-one", "degenerate"):
        v = np.array([complex(draw(unit_entries), draw(unit_entries)) for _ in range(4)])
        m = np.outer(v, v.conj())
        if kind == "degenerate":
            m += draw(unit_entries) * np.eye(4)
    elif kind == "diagonal":
        m += np.diag([draw(unit_entries) for _ in range(4)])
    # Hermitian bit for bit (an outer product's round-off is not), so that
    # ProcessMatrix's own 1e-10 Hermitian check passes at every scale
    lower = np.tril(m, -1)
    m = lower + lower.conj().T + np.diag(m.diagonal().real)
    m *= 2.0 ** draw(st.one_of(st.just(0), st.integers(-1000, 1000)))
    return m - draw(st.sampled_from((0.0,) * 4 + (5e-11, 1e-10, 2e-10))) * np.eye(4)


def _frobenius(m):
    size = np.abs(m)
    big = size.max()  # scaled first, so no square overflows or underflows
    return float(big * np.linalg.norm(size / big)) if big else 0.0


def _rejected_as_not_semidefinite(m):
    try:
        o.ProcessMatrix(m)
    except ValueError as exc:
        return str(exc) == "process matrix must be positive semidefinite"
    return False


@settings(max_examples=400, derandomize=True, deadline=None)
@given(hermitian_4x4())
def test_the_jacobi_eigenvalues_agree_with_lapack(m):
    want = oracles.eigenvalues_eigvalsh(m)
    got = _eigenvalues(m)
    bound = AGREEMENT * EPS * _frobenius(m)
    assert got == sorted(got)
    assert np.max(np.abs(np.array(got) - want)) <= bound
    # the verdict of ProcessMatrix, wherever rounding cannot decide it
    if abs(want[0] + 1e-10) > bound:
        assert _rejected_as_not_semidefinite(m) == (want[0] < -1e-10)


@pytest.mark.parametrize("dip, rejected", [(2e-10, True), (5e-11, False)])
def test_the_semidefinite_line_sits_at_minus_1e_10(dip, rejected):
    # (1 + dip) P_W - dip P_{W sigma_x}: trace preserving, and the two
    # coefficient vectors are orthonormal, so the spectrum is 1 + dip, -dip,
    # 0 and 0 in a full real matrix
    w = oracles.haar_unitary(np.random.default_rng(61))
    m = ((1.0 + dip) * o.choi_from_unitary(w).matrix
         - dip * o.choi_from_unitary(w @ o.PAULI_X).matrix)
    assert _eigenvalues(m)[0] == pytest.approx(-dip, abs=1e-15)
    if rejected:
        assert _rejected_as_not_semidefinite(m)
    else:
        o.ProcessMatrix(m)  # passes every check
