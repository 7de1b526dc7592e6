"""Independent reference implementations used to cross-check the package.

Everything in here recomputes results through a *different* route than the
library: the propagator is integrated as an ODE with an adaptive high-order
scheme instead of Magnus step products, means are accumulated
stroke-by-stroke from raw populations, the cycle work distribution is the
convolution of the two stroke distributions, characteristic functions are
inverted by a dense Fourier sum instead of an FFT, atoms are merged with
numpy's sum and dot for every cluster (one-atom clusters included), process
matrices are Kraus sums written term by term, relative entropy goes through a
matrix logarithm, Gibbs states and state repair go through an
eigendecomposition, and trace norms go through singular values.  Tests
compare the two routes; frozen literals below were produced by these oracles
(or, where noted, by an equally independent integrator) and are pinned so
regressions show up as honest failures.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, logm, svdvals

H_PEV_PER_KHZ = 4.135667696
HBAR_PEV_US = H_PEV_PER_KHZ / (2 * np.pi * 1e-3)

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def drive_hamiltonian(t_us, nu1_khz, nu2_khz, tau_us, compression=False):
    """Rotating-axis ramp Hamiltonian, written out from scratch."""
    if compression:
        return -drive_hamiltonian(tau_us - t_us, nu1_khz, nu2_khz, tau_us)
    nu = nu1_khz + (nu2_khz - nu1_khz) * (t_us / tau_us)
    ang = 0.5 * np.pi * t_us / tau_us
    return -0.5 * H_PEV_PER_KHZ * nu * (np.cos(ang) * _SX + np.sin(ang) * _SY)


def ode_unitary(nu1_khz, nu2_khz, tau_us, compression=False):
    """Propagator from direct numerical integration of the Schrodinger ODE."""

    def rhs(t, y):
        h = drive_hamiltonian(t, nu1_khz, nu2_khz, tau_us, compression)
        return (-1j / HBAR_PEV_US * (h @ y.reshape(2, 2))).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, tau_us),
        np.eye(2, dtype=complex).ravel(),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    if not sol.success:  # pragma: no cover - defensive
        raise RuntimeError(sol.message)
    return sol.y[:, -1].reshape(2, 2)


def ode_transition_probability(nu1_khz, nu2_khz, tau_us):
    """Eigenstate swap probability computed entirely from oracle pieces."""
    u = ode_unitary(nu1_khz, nu2_khz, tau_us)
    _, vi = np.linalg.eigh(drive_hamiltonian(0.0, nu1_khz, nu2_khz, tau_us))
    _, vf = np.linalg.eigh(drive_hamiltonian(tau_us, nu1_khz, nu2_khz, tau_us))
    overlap = vf.conj().T @ u @ vi
    return abs(overlap[1, 0]) ** 2


def thermal_populations(nu_khz, kt_pev):
    gap = H_PEV_PER_KHZ * nu_khz
    if np.isinf(kt_pev):
        return 0.5, 0.5
    z = 1.0 + np.exp(-gap / kt_pev)
    return 1.0 / z, np.exp(-gap / kt_pev) / z


def stroke_means(pops_in, swap_prob, energies_in, energies_out):
    """Mean energy change of one driven stroke, accumulated element-wise."""
    t = [[1.0 - swap_prob, swap_prob], [swap_prob, 1.0 - swap_prob]]
    mean_in = sum(p * e for p, e in zip(pops_in, energies_in))
    mean_out = sum(
        pops_in[n] * t[m][n] * energies_out[m] for n in range(2) for m in range(2)
    )
    return mean_in, mean_out


def cycle_means(nu1_khz, nu2_khz, kt_cold_pev, kt_hot_pev, swap_prob):
    """(work, hot heat, cold heat) means from raw stroke bookkeeping.

    Work is counted positive when extracted; heats are positive flowing into
    the spin.  Everything is summed term by term so the only shared input
    with the library is the atom arithmetic itself.
    """
    e_cold = 0.5 * H_PEV_PER_KHZ * nu1_khz
    e_hot = 0.5 * H_PEV_PER_KHZ * nu2_khz
    levels_cold = (-e_cold, e_cold)
    levels_hot = (-e_hot, e_hot)
    p = thermal_populations(nu1_khz, kt_cold_pev)
    q = thermal_populations(nu2_khz, kt_hot_pev)

    in1, out1 = stroke_means(p, swap_prob, levels_cold, levels_hot)
    work_expansion = in1 - out1

    in2, out2 = stroke_means(q, swap_prob, levels_hot, levels_cold)
    work_compression = in2 - out2

    heat_hot = in2 - out1
    heat_cold = in1 - out2
    return work_expansion + work_compression, heat_hot, heat_cold


def brute_force_work_pairs(p, q, swap_prob, levels_cold, levels_hot):
    """All sixteen (probability, extracted energy) pairs, nested loops."""
    t = [[1.0 - swap_prob, swap_prob], [swap_prob, 1.0 - swap_prob]]
    pairs = []
    for n in range(2):
        for m in range(2):
            for k in range(2):
                for j in range(2):
                    prob = p[n] * t[m][n] * q[k] * t[j][k]
                    delta = (levels_cold[n] - levels_hot[m]) + (
                        levels_hot[k] - levels_cold[j]
                    )
                    pairs.append((prob, delta))
    return pairs


def stroke_work_atoms(pops_in, swap_prob, energies_in, energies_out):
    """The four (energy drop, probability) atoms of one driven stroke."""
    t = [[1.0 - swap_prob, swap_prob], [swap_prob, 1.0 - swap_prob]]
    return [
        (energies_in[n] - energies_out[m], pops_in[n] * t[m][n])
        for n in range(2)
        for m in range(2)
    ]


def convolved_stroke_work_atoms(p, q, swap_prob, levels_cold, levels_hot):
    """Cycle work atoms as the convolution of the two independent stroke
    distributions: every pair of stroke atoms adds energies and multiplies
    weights; sums within 1e-9 peV are pooled and zero weights dropped.
    Returns ascending (energies, probabilities) lists."""
    expansion = stroke_work_atoms(p, swap_prob, levels_cold, levels_hot)
    compression = stroke_work_atoms(q, swap_prob, levels_hot, levels_cold)
    pairs = sorted(
        (ea + eb, pa * pb) for ea, pa in expansion for eb, pb in compression
    )
    energies, probs = [], []
    for energy, weight in pairs:
        if energies and energy - energies[-1] <= 1e-9:
            probs[-1] += weight
        else:
            energies.append(energy)
            probs.append(weight)
    kept = [i for i, w in enumerate(probs) if w > 0.0]
    return [energies[i] for i in kept], [probs[i] for i in kept]


def merge_atoms_loop(energies, probabilities):
    """Raw atoms normalized as ``EnergyDistribution.from_atoms`` did with one
    numpy ``sum`` and ``dot`` per cluster: clip weights above -1e-12 to zero,
    sort stably, merge atoms within 1e-9 peV of their cluster's first atom at
    the weighted mean, drop zero-weight clusters.  Returns the (energies,
    probabilities) tuples; the bit-exact reference for the merge."""
    values = np.asarray(list(energies), dtype=float)
    probs = np.clip(np.asarray(list(probabilities), dtype=float), 0.0, None)
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    merged_values, merged_probs = [], []
    cluster_start = 0
    for i in range(1, len(values) + 1):
        if i < len(values) and values[i] - values[cluster_start] <= 1e-9:
            continue
        chunk_p = probs[cluster_start:i]
        weight = float(chunk_p.sum())
        if weight > 0.0:
            merged_values.append(float(np.dot(values[cluster_start:i], chunk_p) / weight))
            merged_probs.append(weight)
        cluster_start = i
    return tuple(merged_values), tuple(merged_probs)


def atoms_characteristic(atoms, u):
    """chi(u) = sum p exp(i u E) over (energy, probability) atoms."""
    u = np.asarray(u, dtype=float)
    return sum(weight * np.exp(1j * u * energy) for energy, weight in atoms)


def dense_inversion_weights(u, values):
    """Discrete Fourier inversion of chi sampled on a uniform u grid, summed
    as a dense n x n matrix of exp(-i u E): the lattice energies E_j = j dE
    (j from -(n // 2), dE = 2 pi / (n du)) and every unfiltered weight."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    energies = np.arange(-(n // 2), n - n // 2) * (2.0 * np.pi / (n * (u[1] - u[0])))
    weights = (np.asarray(values) @ np.exp(-1j * np.outer(u, energies))).real / n
    return energies, weights


def process_from_kraus(kraus_ops):
    """Process matrix sum_K a_K a_K^dagger of a Kraus channel over the basis
    (i*I, sigma_x, sigma_y, sigma_z), with a_K[k] = tr(B_k^dagger K) / 2,
    written out term by term."""
    basis = (1j * np.eye(2), _SX, _SY, _SZ)
    matrix = np.zeros((4, 4), dtype=complex)
    for op in kraus_ops:
        coeffs = np.array([np.trace(b.conj().T @ op) / 2.0 for b in basis])
        matrix += np.outer(coeffs, coeffs.conj())
    return matrix


def drive_relative_entropy_pairwise(log_p, log_q, swap_prob):
    """S(rho_exp || rho_hot) + S(rho_comp || rho_cold) for one swap
    probability, from the Gibbs log-populations, with the 1-d products of one
    transfer matrix: the rounding of the per-duration report, which the
    batched report must keep so that its printed bytes do not move."""
    p, q = np.exp(log_p), np.exp(log_q)
    transfer = np.array([[1.0 - swap_prob, swap_prob], [swap_prob, 1.0 - swap_prob]])
    return float(p @ log_p - transfer @ p @ log_q + q @ log_q - transfer @ q @ log_p)


def relative_entropy_logm(a, b):
    """Quantum relative entropy via scipy's matrix logarithm."""
    val = np.trace(a @ (logm(a) - logm(b)))
    return float(np.real(val))


def gibbs_state_eigh(hamiltonian, kt_pev):
    """Gibbs state by the eigendecomposition route: Boltzmann weights of the
    eigenvalues, measured from the ground level, on the eigenvectors."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    weights = np.exp(-(energies - energies[0]) / kt_pev)
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


def repair_state_eigh(m):
    """Nearest valid state by the eigendecomposition route: Hermitize, clip
    negative eigenvalues, renormalize the trace (the maximally mixed state
    when no eigenvalue is positive)."""
    herm = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(herm)
    w = np.clip(w, 0.0, None)
    w = w / w.sum() if w.sum() > 0.0 else np.full(2, 0.5)
    return (v * w) @ v.conj().T


def monte_carlo_noise(seed, n_samples, width):
    """Complex noise on the four cycle states (cold, hot, after expansion,
    after compression) of each Monte Carlo sample, shape (n_samples, 4, 2, 2).

    The documented stream layout, one draw at a time: one generator on
    ``SeedSequence(seed)`` draws, sample by sample and for each state in that
    order, a (2, 2) real part and then a (2, 2) imaginary part.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = np.empty((n_samples, 4, 2, 2), dtype=complex)
    for i in range(n_samples):
        for k in range(4):
            real = rng.normal(0.0, width, (2, 2))
            imag = rng.normal(0.0, width, (2, 2))
            noise[i, k] = real + 1j * imag
    return noise


def trace_norm_svd(m):
    """Sum of singular values, the independent route to trace distance."""
    return float(np.sum(svdvals(m)))


def haar_unitary(rng):
    """Haar-random 2x2 unitary from a QR decomposition."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sequential_magnus_product(nu1_khz, nu2_khz, tau_us, n_steps, compression):
    """Plain-loop fourth-order Magnus product; order-of-multiplication
    reference.

    Each step is the matrix exponential of the two-term Magnus exponent
    Omega = dt/2 (A_- + A_+) + sqrt(3)/12 dt^2 [A_+, A_-], with
    A = -i H / hbar sampled at the two Gauss-Legendre nodes of the step.
    """
    dt = tau_us / n_steps
    offset = np.sqrt(3.0) / 6.0
    u = np.eye(2, dtype=complex)
    for i in range(n_steps):
        a_early, a_late = (
            -1j / HBAR_PEV_US
            * drive_hamiltonian(
                (i + 0.5 + node) * dt, nu1_khz, nu2_khz, tau_us, compression
            )
            for node in (-offset, offset)
        )
        omega = 0.5 * dt * (a_early + a_late) + (np.sqrt(3.0) / 12.0) * dt**2 * (
            a_late @ a_early - a_early @ a_late
        )
        u = expm(omega) @ u
    return u


# ---------------------------------------------------------------------------
# Frozen oracle outputs.  Each value was produced by the routines above (or by
# exact closed-form arithmetic) and is pinned here so the library is tested
# against numbers it did not generate.
# ---------------------------------------------------------------------------

# Converged eigenstate swap probabilities for the default 2.0 -> 3.6 kHz ramp,
# to 12 significant digits: fixed-step RK4 with 80000 steps
# (perfbench/tau_reference.json, estimated error below 1e-14); `ode_unitary`
# (DOP853, rtol 1e-12) agrees to 4e-13 at 100 us.
TRANSITION_PROB_CONVERGED = {
    100.0: 0.378609173347,
    300.0: 0.0149863381856,
    700.0: 0.00145265451245,
}

# Largest swap probability that still lets the default ramp extract work.
EXTRACTION_BOUND_OPTION_A = 0.0668039462337136
EXTRACTION_BOUND_OPTION_B = 0.1265430502069953

# Spin temperatures recovered from the measured-population examples.
SPIN_TEMPERATURE_COLD_PEV = 6.5351624774778285
SPIN_TEMPERATURE_HOT_PEV = 21.023323690610198

# Relative entropy of the maximally mixed state from diag(0.3, 0.7).
REL_ENTROPY_HALF_VS_37 = 0.08717669357238889

# Ideal-swap efficiency of the default ramp and the two hot-bath ceilings.
EFFICIENCY_IDEAL_SWAP = 1.0 - 2.0 / 3.6
CARNOT_OPTION_A = 1.0 - 6.6 / 21.5
CARNOT_OPTION_B = 1.0 - 6.6 / 40.5

# Trace distance between the do-nothing process and the fully mixing one.
DISTANCE_IDENTITY_DEPOLARIZING = 0.75
