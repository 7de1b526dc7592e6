"""Propagator checks against an independent adaptive ODE integration.

The library builds its unitaries from products of fourth-order Magnus steps
taken in the frame that turns with the drive's field axis.  Every
quantitative claim here is verified against `oracles.ode_unitary`, which
integrates the lab-frame equation and knows nothing about time stepping or
frames, or against the plain-loop `oracles.sequential_magnus_product`.  That
loop builds each drive's turning-frame generator from the lab Hamiltonian,
exponentiates each step with `scipy.linalg.expm` instead of the closed
axis-angle form, and applies both ends' frame rotations as matrices.  It
integrates the compression drive in its own turning frame, so its match
with the adjoint of the kernel's expansion product checks that identity step
for step.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ottospin as o
from ottospin import cycle, propagator
from ottospin.propagator import ConvergenceError, evolve_unitaries, slice_product
import oracles

DEFAULT = o.DriveProtocol(2.0, 3.6, 100.0)
SWEEP_TAU_GRID = (100.0, 200.0, 235.0, 260.0, 300.0, 320.0, 420.0, 500.0, 600.0, 700.0)
CRITERION_10_GRID = np.arange(100.0, 701.0, 10.0)
# how many of the 61 grid points converge at each step count
GRID_STEP_COUNTS = {
    (2.0, 3.6): {128: 61},
    (1.1, 7.3): {128: 18, 256: 43},
}
SLICE_CASES = [
    (2.0, 3.6, 100.0, 1),
    (2.0, 3.6, 100.0, 2),
    (2.0, 3.6, 50.0, 17),
    (1.1, 7.3, 400.0, 503),
    (2.0, 3.6, 700.0, 4096),
]


def _swap_prob(tau_us):
    p = o.DriveProtocol(2.0, 3.6, tau_us)
    u = o.evolve_unitary(p)
    h_i, h_f = o.endpoint_hamiltonians(p)
    return o.transition_probability(u, h_i, h_f)


def test_unitarity_defect_below_contract():
    u = o.evolve_unitary(DEFAULT).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10


def test_compression_unitary_is_adjoint_of_expansion():
    # the compression drive's own product, at the expansion's step count
    u = o.evolve_unitary(DEFAULT)
    v = oracles.sequential_magnus_product(2.0, 3.6, 100.0, u.n_steps, True)
    assert np.max(np.abs(v - u.matrix.conj().T)) < 1e-13


def test_expansion_then_compression_composes_to_identity():
    u = o.evolve_unitary(DEFAULT).matrix
    v = oracles.ode_unitary(2.0, 3.6, 100.0, compression=True)
    assert np.max(np.abs(v @ u - np.eye(2))) < 1e-8


def test_matches_independent_ode_integration():
    for tau in (100.0, 300.0, 700.0):
        u = o.evolve_unitary(o.DriveProtocol(2.0, 3.6, tau)).matrix
        ref = oracles.ode_unitary(2.0, 3.6, tau)
        assert np.max(np.abs(u - ref)) < 1e-7


def test_compression_matches_independent_ode_integration():
    v = o.evolve_unitary(DEFAULT).matrix.conj().T
    ref = oracles.ode_unitary(2.0, 3.6, 100.0, compression=True)
    assert np.max(np.abs(v - ref)) < 1e-7


def test_single_step_is_the_magnus_exponential():
    # With one step the product *is* the end rotation V(tau) times the
    # exponential of the two-node Magnus exponent over the whole window, in
    # the frame V(t) = exp(-i pi t / (4 tau) sigma_z) that turns with the
    # field, built here from the package's own Hamiltonian and scipy's expm.
    from scipy.linalg import expm

    tau = 80.0
    p = o.DriveProtocol(2.0, 3.6, tau)
    u = slice_product(2.0, 3.6, tau, 1)
    sz = np.diag([1.0, -1.0]).astype(complex)

    def frame(t):
        return expm(-0.25j * np.pi * (t / tau) * sz)

    def turning_generator(t):
        a = -1j / oracles.HBAR_PEV_US * o.drive_hamiltonian(t, p)
        return frame(t).conj().T @ a @ frame(t) + 0.25j * (np.pi / tau) * sz

    offset = np.sqrt(3.0) / 6.0
    b_early, b_late = (turning_generator((0.5 + node) * tau) for node in (-offset, offset))
    omega = 0.5 * tau * (b_early + b_late) + (np.sqrt(3.0) / 12.0) * tau**2 * (
        b_late @ b_early - b_early @ b_late
    )
    assert np.max(np.abs(u - frame(tau) @ expm(omega))) < 1e-13


def test_time_ordering_error_is_fourth_order_in_step_width():
    ref = oracles.ode_unitary(2.0, 3.6, 300.0)
    errs = []
    for n in (25, 50, 100, 200):
        u = slice_product(2.0, 3.6, 300.0, n)
        errs.append(np.max(np.abs(u - ref)))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(16.0, abs=0.2)


def test_kernel_matches_plain_loop_reference_product():
    # Guards the multiplication *order* of the pairwise step reduction.  The
    # kernel builds the expansion product only; the plain loop integrates the
    # compression drive on its own, in its own turning frame, so its match
    # with the adjoint checks that identity step for step.
    for n in (1, 2, 7, 17, 64):
        got = slice_product(2.0, 3.6, 50.0, n)
        for product, compression in ((got, False), (got.conj().T, True)):
            ref = oracles.sequential_magnus_product(2.0, 3.6, 50.0, n, compression)
            assert np.max(np.abs(product - ref)) < 1e-14


def test_slice_product_matches_plain_loop_reference():
    for nu1, nu2, tau, n in SLICE_CASES:
        got = slice_product(nu1, nu2, tau, n)
        for product, compression in ((got, False), (got.conj().T, True)):
            ref = oracles.sequential_magnus_product(nu1, nu2, tau, n, compression)
            assert np.max(np.abs(product - ref)) < 1e-13


def test_slice_product_validates_arguments():
    with pytest.raises(ValueError):
        slice_product(2.0, 3.6, 100.0, 0)
    with pytest.raises(ValueError):
        slice_product(2.0, 3.6, 0.0, 10)


def test_slice_product_reproduces_converged_physics():
    # End to end through the public API: the Magnus product must give the
    # converged swap probability of the default 100 us ramp.
    p = o.DriveProtocol(2.0, 3.6, 100.0)
    h_i, h_f = o.endpoint_hamiltonians(p)
    prob = o.transition_probability(o.evolve_unitary(p), h_i, h_f)
    assert prob == pytest.approx(oracles.TRANSITION_PROB_CONVERGED[100.0], abs=1e-10)


def test_convergence_escalation_reports_the_finer_slicing():
    um = o.evolve_unitary(DEFAULT)
    assert um.n_steps == 2 * o.DEFAULT_N_STEPS
    # the slow ramp of 10.8 cycles needs two extra doublings
    um_slow = o.evolve_unitary(o.DriveProtocol(2.0, 3.6, 3000.0))
    assert um_slow.n_steps == 8 * o.DEFAULT_N_STEPS


def test_convergence_failure_raises_after_bounded_doublings():
    with pytest.raises(ConvergenceError):
        o.evolve_unitary(o.DriveProtocol(2.0, 3.6, 700.0), n_steps=1)


@pytest.mark.parametrize("ramp", list(GRID_STEP_COUNTS))
def test_grid_kernel_matches_one_tau_propagator_and_plain_loop(ramp):
    protocol = o.DriveProtocol(*ramp, 100.0)
    matrices, steps = evolve_unitaries(protocol, CRITERION_10_GRID)
    counts = dict(zip(*np.unique(steps, return_counts=True)))
    assert counts == GRID_STEP_COUNTS[ramp]
    for tau, u, n in zip(CRITERION_10_GRID, matrices, steps):
        single = o.evolve_unitary(replace(protocol, tau_us=tau))
        assert n == single.n_steps
        assert np.max(np.abs(u - single.matrix)) < 1e-14
    # the plain loop at the shortest duration of each step count, where the
    # doubling decision was closest, integrating both drives: the adjoints
    # of the grid's products are the compression propagators
    adjoints = matrices.conj().transpose(0, 2, 1)
    for n in counts:
        k = int(np.argmax(steps == n))
        for product, compression in ((matrices[k], False), (adjoints[k], True)):
            ref = oracles.sequential_magnus_product(*ramp, CRITERION_10_GRID[k], n, compression)
            assert np.max(np.abs(product - ref)) < 1e-13


def test_grid_convergence_failure_of_one_duration_fails_the_grid():
    # from one step, 10 us converges within six doublings and 700 us does not
    assert evolve_unitaries(DEFAULT, [10.0], n_steps=1)[1][0] == 32
    with pytest.raises(ConvergenceError, match="not converged to 1e-08 after 6 doublings"):
        evolve_unitaries(DEFAULT, [10.0, 700.0, 50.0], n_steps=1)


@pytest.mark.parametrize(
    "taus, n_steps, message",
    [([10.0, 700.0, 5000.0], 1,
      "from n_steps=1 (tau_us = 700, 2.52 cycles at nu_final_khz = 3.6)"),
     ([100.0, 5e5], 64,
      "from n_steps=64 (tau_us = 500000, 1800 cycles at nu_final_khz = 3.6)")],
    ids=["first-of-two-failing", "long-drive"],
)
def test_a_convergence_failure_names_the_first_failing_drive(taus, n_steps, message):
    with pytest.raises(ConvergenceError) as exc:
        evolve_unitaries(DEFAULT, taus, n_steps)
    assert str(exc.value) == (
        "Magnus product not converged to 1e-08 after 6 doublings " + message
    )


@pytest.mark.parametrize("ramp", [(1.8507, 2.9259), (2.9259, 1.8507)],
                         ids=["opening", "narrowing"])
def test_a_step_angle_refusal_names_the_step_count_the_guard_needs(ramp):
    # the 2048 -> 4096 change met the tolerance on both ramps, so the line
    # blames the guard, and counts cycles at the faster end, as it does
    with pytest.raises(ConvergenceError) as exc:
        evolve_unitaries(o.DriveProtocol(*ramp, 1.0), [100.0, 1986413.0])
    assert str(exc.value) == (
        "Magnus product refused by the step-angle guard after 6 doublings from "
        "n_steps=64: its 4096 steps met 1e-08, but tau_us = 1.98641e+06 (5812.05 cycles "
        "at max(nu_initial_khz, nu_final_khz) = 2.9259) needs more than 11624.1 steps")


def test_grid_rejects_a_kernel_output_off_unitarity(monkeypatch):
    exact = propagator.cayley_klein_product
    monkeypatch.setattr(
        propagator, "cayley_klein_product", lambda *args: 1.001 * exact(*args)
    )
    with pytest.raises(ValueError, match="matrix is not unitary"):
        evolve_unitaries(DEFAULT, [100.0, 300.0])
    with pytest.raises(ValueError, match="matrix is not unitary"):
        o.evolve_unitary(DEFAULT)


@pytest.mark.parametrize("defect, accepted", [(5e-11, True), (2e-10, False)])
def test_the_unitarity_line_sits_at_a_defect_of_1e_10(defect, accepted):
    # c U has U^dagger U - I = (c^2 - 1) I
    matrix = math.sqrt(1.0 + defect) * oracles.haar_unitary(np.random.default_rng(23))
    if accepted:
        assert o.UnitaryMap(matrix, DEFAULT, 64).matrix is matrix
    else:
        with pytest.raises(ValueError) as info:
            o.UnitaryMap(matrix, DEFAULT, 64)
        assert str(info.value) == f"matrix is not unitary (defect {defect:.3e})"


def _counting_kernel(monkeypatch):
    """Patch the kernel with a wrapper that records the durations of each
    call; returns the record."""
    calls = []
    exact = propagator.cayley_klein_product

    def counted(*args):
        calls.append(list(args[2]))
        return exact(*args)

    monkeypatch.setattr(propagator, "cayley_klein_product", counted)
    return calls


@pytest.mark.parametrize(
    "taus, message",
    [
        ([], "tau list must be nonempty"),
        ([np.nan], "drive duration must be positive and finite, got nan us"),
        ([100.0, np.inf], "drive duration must be positive and finite, got inf us"),
        ([-100.0], "drive duration must be positive and finite, got -100.0 us"),
        ([0.0], "drive duration must be positive and finite, got 0.0 us"),
        ([-0.0], "drive duration must be positive and finite, got -0.0 us"),
    ],
    ids=["empty", "nan", "inf", "negative", "zero", "negative-zero"],
)
def test_grid_rejects_bad_duration_lists_before_the_kernel(
    monkeypatch, recwarn, taus, message
):
    calls = _counting_kernel(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evolve_unitaries(DEFAULT, taus)
    assert calls == []
    assert not recwarn.list


@pytest.mark.parametrize(
    "protocol, n_steps",
    [(DEFAULT, 64), (o.DriveProtocol(1.1, 7.3, 1.0), 25)],
    ids=["default-64", "wide-25"],
)
def test_a_durations_product_does_not_depend_on_its_list(protocol, n_steps):
    rng = np.random.default_rng(5)
    taus = rng.uniform(20.0, 700.0, 12).tolist()
    # one duration, a list, the list reordered with duplicates, a repeat
    lists = [taus[:1], taus, rng.permutation(taus + taus[2:7]).tolist(), [taus[3]] * 3]
    for tau_list in lists:
        u, steps = evolve_unitaries(protocol, tau_list, n_steps)
        # a list and its array give the same products
        again, again_steps = evolve_unitaries(protocol, np.array(tau_list), n_steps)
        assert (again.tobytes(), again_steps.tobytes()) == (u.tobytes(), steps.tobytes())
        for tau, matrix, n in zip(tau_list, u, steps):
            single, single_steps = evolve_unitaries(protocol, [tau], n_steps)
            assert (single[0].tobytes(), single_steps[0]) == (matrix.tobytes(), n)


def test_a_repeated_call_runs_its_escalation_again(monkeypatch):
    # nothing is kept at this layer: every call runs the kernel, a failing
    # one as often as it is made
    calls = _counting_kernel(monkeypatch)
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            evolve_unitaries(DEFAULT, [10.0, 700.0, 50.0], n_steps=1)
    half = len(calls) // 2
    # the first kernel call of each takes every duration; the doublings follow
    assert calls[0] == calls[half] == [10.0, 700.0, 50.0] and calls[:half] == calls[half:]
    calls.clear()
    first = evolve_unitaries(DEFAULT, [100.0, 300.0])
    again = evolve_unitaries(DEFAULT, [100.0, 300.0])
    half = len(calls) // 2
    assert calls[0] == calls[half] == [100.0, 300.0] and calls[:half] == calls[half:]
    assert (first[0].tobytes(), first[1].tobytes()) == (again[0].tobytes(), again[1].tobytes())
    assert np.max(np.abs(first[0][0] - oracles.ode_unitary(2.0, 3.6, 100.0))) < 1e-8


def test_writing_into_a_returned_stack_leaves_the_next_result():
    matrices, steps = evolve_unitaries(DEFAULT, [100.0, 300.0])
    expected = matrices.tobytes(), steps.tobytes()
    assert matrices.flags.writeable and steps.flags.writeable
    matrices[:] = 0.0
    steps[:] = 0
    again = evolve_unitaries(DEFAULT, [100.0, 300.0])
    assert (again[0].tobytes(), again[1].tobytes()) == expected


def test_an_engines_kept_eigenvectors_still_check_every_sweep(monkeypatch):
    calls = []
    exact = propagator.eigensystem
    monkeypatch.setattr(
        propagator, "eigensystem", lambda h: calls.append(h) or exact(h)
    )
    cfg = o.CycleConfig(DEFAULT, o.ThermalParams(6.6, 40.5))
    first = o.sweep_tau(cfg, [100.0, 300.0])
    again = o.sweep_tau(cfg, [300.0, 150.0])
    assert len(calls) == 2
    assert repr(again[0]) == repr(first[1])
    vectors = cycle._cycle_plan(2.0, 3.6, 6.6, 40.5)[0]
    h_i, h_f = o.endpoint_hamiltonians(DEFAULT)
    assert [v.tobytes() for v in vectors] == [exact(h)[1].tobytes() for h in (h_i, h_f)]

    def sheared(h):
        # non-orthogonal eigenvector columns make the two cross elements differ
        energies, vectors = exact(h)
        return energies, vectors @ np.array([[1.0, 0.01], [0.0, 1.0]])

    monkeypatch.setattr(propagator, "eigensystem", sheared)
    hotter = o.CycleConfig(DEFAULT, o.ThermalParams(6.6, 21.5))
    for _ in range(2):  # the second sweep reads the plan the first one kept
        with pytest.raises(RuntimeError, match="symmetry violated"):
            o.sweep_tau(hotter, [100.0])
    assert cycle._cycle_plan.cache_info().currsize == 2


def test_batched_overlap_checks_the_symmetry_of_every_propagator():
    h_i, h_f = o.endpoint_hamiltonians(DEFAULT)
    _, vec_i = o.eigensystem(h_i)
    _, vec_f = o.eigensystem(h_f)
    # a non-unitary map whose overlap in the endpoint eigenbases is a shear
    sheared = vec_f @ np.array([[1.0, 0.1], [0.0, 1.0]]) @ vec_i.conj().T
    good = o.evolve_unitary(DEFAULT).matrix
    with pytest.raises(RuntimeError, match="symmetry violated"):
        propagator._flip_probabilities(np.stack([good, sheared]), vec_i, vec_f)


@pytest.mark.parametrize("shear, accepted", [(5.7e-9, True), (2.3e-8, False)])
def test_the_transition_symmetry_line_sits_at_1e_9(monkeypatch, shear, accepted):
    # a shear of the endpoint eigenvectors parts the two cross elements by
    # ~0.087 times the shear at tau = 100 us: 5.0e-10 and 2.0e-9 here
    exact = propagator.eigensystem

    def sheared(h):
        energies, vectors = exact(h)
        return energies, vectors @ np.array([[1.0, shear], [0.0, 1.0]])

    monkeypatch.setattr(propagator, "eigensystem", sheared)
    cfg = o.CycleConfig(DEFAULT, o.ThermalParams(6.6, 40.5))
    if accepted:
        assert o.run_cycle(cfg).transition_prob == pytest.approx(0.3786092, abs=1e-7)
    else:
        with pytest.raises(RuntimeError) as info:
            o.run_cycle(cfg)
        up, down = map(float, re.fullmatch(
            r"transition-probability symmetry violated: (\S+) vs (\S+)", str(info.value)).groups())
        assert 1e-9 < abs(up - down) < 2.1e-9


def test_sweep_transition_probabilities_match_the_converged_oracle():
    ref = oracles.TRANSITION_PROB_CONVERGED
    cfg = o.CycleConfig(DEFAULT, o.ThermalParams(6.6, 40.5))
    reports = o.sweep_tau(cfg, [100.0, 300.0, 700.0])
    assert reports[0].transition_prob == pytest.approx(ref[100.0], abs=1e-10)
    assert reports[1].transition_prob == pytest.approx(ref[300.0], abs=1e-8)
    assert reports[2].transition_prob == pytest.approx(ref[700.0], abs=1e-8)


def test_sweep_finds_the_endpoint_eigenvectors_once(monkeypatch):
    calls = []
    exact = propagator.eigensystem
    monkeypatch.setattr(
        propagator, "eigensystem", lambda h: calls.append(h) or exact(h)
    )
    cfg = o.CycleConfig(DEFAULT, o.ThermalParams(6.6, 40.5))
    o.sweep_tau(cfg, CRITERION_10_GRID)
    assert len(calls) == 2


def test_evolve_rejects_bad_step_counts():
    with pytest.raises(ValueError):
        o.evolve_unitary(DEFAULT, n_steps=0)


@pytest.mark.parametrize("n_steps", [2**63 - 1, 2**63, 2**64 - 2])
def test_a_step_count_numpy_cannot_hold_is_a_value_error(n_steps):
    # np.arange gives an empty array at these sizes, not an error
    with pytest.raises(ValueError, match=f"^n_steps {n_steps} is too large for an array$"):
        evolve_unitaries(DEFAULT, [100.0], n_steps)


def _endpoint_vectors():
    return [o.eigensystem(h)[1] for h in o.endpoint_hamiltonians(DEFAULT)]


@pytest.mark.parametrize(
    "call, error, message",
    [(lambda: o.UnitaryMap(np.full((2, 2), np.nan), DEFAULT, 1),
      ValueError, "matrix is not unitary (defect nan)"),
     (lambda: propagator._flip_probabilities(np.full((1, 2, 2), np.nan), *_endpoint_vectors()),
      RuntimeError, "transition-probability symmetry violated: nan vs nan"),
     (lambda: slice_product(2.0, 3.6, np.nan, 4),
      ValueError, "drive duration must be positive and finite, got nan us"),
     (lambda: slice_product(2.0, 3.6, np.inf, 4),
      ValueError, "drive duration must be positive and finite, got inf us"),
     (lambda: o.evolve_unitary(DEFAULT, 2.5),
      ValueError, "n_steps must be an integer >= 1, got 2.5"),
     (lambda: slice_product(2.0, 3.6, 100.0, 0),
      ValueError, "n_steps must be an integer >= 1, got 0")],
    ids=["nan-unitary-map", "nan-flip-stack", "nan-slice-duration", "inf-slice-duration",
         "fractional-step-count", "zero-slice-steps"],
)
def test_a_rejected_propagator_input_names_its_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_unitary_map_rejects_non_unitary_matrices():
    with pytest.raises(ValueError):
        o.UnitaryMap(np.array([[1.0, 0.0], [0.0, 0.5]], complex), DEFAULT, 1)


def test_unitary_maps_compare_by_identity_and_go_in_a_set():
    # an array field has no truth value, so maps are equal only to themselves
    u, v = o.evolve_unitary(DEFAULT), o.evolve_unitary(DEFAULT)
    np.testing.assert_array_equal(u.matrix, v.matrix)
    assert u == u and u != v
    assert {u, v, u} == {u, v} and len({u, v}) == 2


def test_transition_probability_default_ramp():
    ref = oracles.TRANSITION_PROB_CONVERGED
    assert _swap_prob(100.0) == pytest.approx(ref[100.0], abs=1e-10)
    assert _swap_prob(300.0) == pytest.approx(ref[300.0], abs=1e-8)
    assert _swap_prob(700.0) == pytest.approx(ref[700.0], abs=1e-8)


def test_transition_probability_matches_ode_oracle():
    for tau in (100.0, 300.0):
        assert _swap_prob(tau) == pytest.approx(
            oracles.ode_transition_probability(2.0, 3.6, tau), abs=1e-7
        )


def test_transition_probability_sudden_limit_is_one_half():
    # For an instantaneous quench the overlap of x- and y-axis eigenstates
    # fixes the swap probability at exactly 1/2.
    assert _swap_prob(0.01) == pytest.approx(0.5, abs=1e-3)


def test_transition_probability_band_values():
    assert 0.32 <= _swap_prob(100.0) <= 0.44
    assert _swap_prob(700.0) <= 0.06


def test_transition_probability_not_monotone_but_decreasing_overall():
    values = [_swap_prob(tau) for tau in SWEEP_TAU_GRID]
    diffs = np.diff(values)
    assert np.any(diffs > 0) and np.any(diffs < 0)  # genuinely oscillatory
    assert values[-1] < values[0]


@st.composite
def long_drives(draw):
    """(nu_i, nu_f, tau_us): nu_i log-uniform over 0.1-50 kHz, nu_f/nu_i over
    1.05-3, and a drive of 10^3-2*10^4 cycles at nu_f, log-uniform."""
    nu_i = math.exp(draw(st.floats(math.log(0.1), math.log(50.0))))
    nu_f = nu_i * draw(st.floats(1.05, 3.0))
    cycles = math.exp(draw(st.floats(math.log(1e3), math.log(2e4))))
    return nu_i, nu_f, cycles / (o.KHZ_US * nu_f)


@given(long_drives())
# 5812 cycles: two doublings agreed at 4096 steps, 4.46 rad a step, 3.4e-7 off
@example((1.8507, 2.9259, 1986413.0))
@settings(max_examples=60, deadline=None)
def test_an_accepted_long_drive_is_within_the_tolerance_of_eight_times_its_steps(drive):
    # past the Magnus convergence radius two wrong products can agree; a
    # drive that converges must agree with a kernel product of 8x its steps
    nu_i, nu_f, tau_us = drive
    try:
        matrices, steps = evolve_unitaries(o.DriveProtocol(nu_i, nu_f, tau_us), [tau_us])
    except ConvergenceError:
        return
    finer = slice_product(nu_i, nu_f, tau_us, 8 * int(steps[0]))
    assert np.abs(matrices[0] - finer).max() < o.CONVERGENCE_TOLERANCE


@st.composite
def adiabatic_engines(draw):
    """(nu_i, nu_f, tau_us): nu_i log-uniform over 0.1-50 kHz, nu_f/nu_i over
    1.05-3, and tau log-uniform over the drives of at least 5 cycles at nu_i
    and at most 1000 at nu_f, the range the bound below was checked on."""
    nu_i = math.exp(draw(st.floats(math.log(0.1), math.log(50.0))))
    nu_f = nu_i * draw(st.floats(1.05, 3.0))
    shortest, longest = 5.0 / (o.KHZ_US * nu_i), 1000.0 / (o.KHZ_US * nu_f)
    return nu_i, nu_f, shortest * (longest / shortest) ** draw(st.floats(0.0, 1.0))


# Fixed on the first-order form over drives of at most 30 cycles, where
# |xi - xi_APT| / (w/A_i)^4 peaked at 9.52 and xi moved by at most
# 0.08 sqrt(xi) CONVERGENCE_TOLERANCE when the step count was quadrupled.
# Against the second-order form, (|xi - xi_2| - sqrt(xi) tol) / (w/A_i)^4
# peaked at 3.25 over four scans of 4000 engines drawn as above (0.49 on
# the 142-cycle engine below, 0.16 for the default ramp at 5 ms).  Never
# raise them.
ADIABATIC_C, ADIABATIC_K = 10.0, 1.0


@given(adiabatic_engines())
@example((2.0, 3.6, 5000.0))
@example((2.0, 3.6, 50000.0))
@example((2.0, 3.6, 100000.0))
# 142 cycles at nu_f: first-order theory misses by 25.4 (w/A_i)^4 here
@example((3.155, 6.824, 20870.0))
@settings(max_examples=60, deadline=None)
def test_long_drives_match_second_order_adiabatic_perturbation_theory(engine):
    # the error of second-order theory falls as (w/A_i)^4, with w = pi/(4 tau)
    # and A_i = pi 1e-3 nu_i; the second term is the propagator's tolerance
    nu_i, nu_f, tau_us = engine
    protocol = o.DriveProtocol(nu_i, nu_f, tau_us)
    xi = o.transition_probability(o.evolve_unitary(protocol), *o.endpoint_hamiltonians(protocol))
    w_over_a = (math.pi / (4.0 * tau_us)) / (math.pi * o.KHZ_US * nu_i)
    bound = ADIABATIC_C * w_over_a**4 + ADIABATIC_K * math.sqrt(xi) * o.CONVERGENCE_TOLERANCE
    assert abs(xi - oracles.adiabatic_swap_probability(nu_i, nu_f, tau_us)) <= bound


def test_transition_probability_identity_evolution_is_zero():
    h = o.drive_hamiltonian(0.0, DEFAULT)
    ident = o.UnitaryMap(np.eye(2, dtype=complex), DEFAULT, 1)
    assert o.transition_probability(ident, h, h) == pytest.approx(0.0, abs=1e-15)


def test_transition_probability_rejects_degenerate_hamiltonians():
    u = o.evolve_unitary(DEFAULT)
    with pytest.raises(ValueError, match="degenerate Hamiltonian"):
        o.transition_probability(u, np.zeros((2, 2)), o.drive_hamiltonian(0.0, DEFAULT))


def test_transition_probability_invariant_under_global_frame_rotation():
    rng = np.random.default_rng(11)
    p = DEFAULT
    u = o.evolve_unitary(p)
    h_i, h_f = o.endpoint_hamiltonians(p)
    base = o.transition_probability(u, h_i, h_f)
    for _ in range(5):
        r = oracles.haar_unitary(rng)
        rotated = o.UnitaryMap(r @ u.matrix @ r.conj().T, p, u.n_steps)
        rotated_prob = o.transition_probability(
            rotated, r @ h_i @ r.conj().T, r @ h_f @ r.conj().T
        )
        assert rotated_prob == pytest.approx(base, abs=1e-12)


def test_propagate_state_preserves_trace_purity_and_spectrum():
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    u = o.evolve_unitary(DEFAULT)
    out = o.propagate_state(rho, u)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(out @ out).real == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12
    )


def test_propagate_state_fixed_points():
    u = o.evolve_unitary(DEFAULT)
    np.testing.assert_allclose(o.propagate_state(np.eye(2) / 2, u), np.eye(2) / 2, atol=1e-12)
    rho = np.array([[0.6, 0.1], [0.1, 0.4]], complex)
    ident = o.UnitaryMap(np.eye(2, dtype=complex), DEFAULT, 1)
    np.testing.assert_allclose(o.propagate_state(rho, ident), rho, atol=1e-15)
