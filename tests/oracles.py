"""Independent reference implementations used to cross-check the package.

Everything in here recomputes results through a *different* route than the
library: the propagator is integrated as an ODE with an adaptive high-order
scheme instead of Magnus step products, means are accumulated
stroke-by-stroke from raw populations, the cycle work distribution is the
convolution of the two stroke distributions, characteristic functions are
inverted by a dense Fourier sum instead of an FFT, atoms are merged with
numpy's sum and dot for every cluster (one-atom clusters included), the
engine distributions go through the (2, 2, 2, 2) history table and the
post-expansion populations (the table routes, which the package no longer
carries), the conjugate symmetry of chi is checked by a full sorted pairing
pass, recovered lattice atoms go through ``from_atoms``, process
matrices are Kraus sums written term by term, relative entropy goes through a
matrix logarithm, and so does the efficiency lag, from the paper's four cycle
states, the largest swap probability that still extracts work is the root of
the mean work in the bath polarizations, the swap probability of a long drive
is second-order adiabatic perturbation theory in the frame that turns with the
drive's field, the drive strokes' relative-entropy sum goes through
Gibbs populations and logarithms at 50 decimal digits, the mean entropy
production and the fluctuation theorem go through the sixteen cycle
histories, Gibbs states and state repair go through an
eigendecomposition, the eigensystem of a 2x2 Hermitian matrix comes
from LAPACK's ``eigh`` rather than the closed form, the eigenvalues of a
4x4 Hermitian matrix come from LAPACK's ``eigvalsh`` rather than Jacobi
rotations, the Bloch-form Monte
Carlo repair is also written row-major, on (n, 3) stacks reduced over their
component axis, the Monte Carlo's relative entropy goes through the
eigenvalues of each Bloch pair at 50 decimal digits, trace norms go through
singular values, and a run configuration is written back as text, the
inverse that the parser's round-trip tests read.  Tests compare the two routes; frozen
literals below were produced by these oracles (or, where noted, by an
equally independent integrator) and are pinned so regressions show up as
honest failures.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, logm, svdvals

from ottospin.config import _KEYS

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
    """Raw atoms normalized as ``EnergyDistribution.from_atoms`` defines it,
    in exact rational arithmetic: clip weights above -1e-12 to zero, sort
    stably, merge each atom within 1e-9 peV of the previous atom into its
    cluster, drop zero-weight clusters.  Returns one
    ``(mean, weight, first, last)`` per kept cluster: its exact weighted mean
    and weight as ``Fraction``s, and its first and last energies."""
    values = [float(v) for v in energies]
    probs = [max(float(p), 0.0) for p in probabilities]
    # Python's sort is stable, and -0.0 == 0.0 keeps signed zeros in order
    order = sorted(range(len(values)), key=values.__getitem__)
    values, probs = [values[i] for i in order], [probs[i] for i in order]
    merged, start = [], 0
    for i in range(1, len(values) + 1):
        if i < len(values) and values[i] - values[i - 1] <= 1e-9:
            continue
        weights = [Fraction(p) for p in probs[start:i]]
        weight = sum(weights)
        if weight > 0:
            mean = sum(Fraction(v) * w for v, w in zip(values[start:i], weights)) / weight
            merged.append((mean, weight, values[start], values[i - 1]))
        start = i
    return merged


def enumerate_histories(cold_populations, hot_populations, transition_prob, spectra):
    """All sixteen cycle histories as ``(delta_e_pev, probability)``, two
    arrays of shape (2, 2, 2, 2) indexed ``[n, m, k, j]``: the reference
    table of the engine's work distribution.

    ``n``/``m`` are the levels found before and after the expansion stroke,
    ``k``/``j`` before and after the compression stroke (0 = ground,
    1 = excited).  ``spectra`` holds the (initial, final) endpoint energy
    pairs (ascending, peV).  The expansion stroke contributes the energy drop
    e_i[n] - e_f[m], the compression stroke e_f[k] - e_i[j]; both strokes
    share the same transfer matrix because the compression propagator is the
    adjoint of the expansion one.  The weight of a history is
    p[n] T[m, n] q[k] T[j, k].
    """
    p = _checked_populations(cold_populations, "cold")
    q = _checked_populations(hot_populations, "hot")
    e_initial, e_final = (_checked_spectrum(s) for s in spectra)
    # transfer_t[n, m] = T[m, n]: the weight of landing on m from n
    transfer_t = np.array(_transfer_matrix(transition_prob)).T

    probability = (
        p[:, None, None, None] * transfer_t[:, :, None, None] * q[:, None] * transfer_t
    )
    expansion = e_initial[:, None] - e_final
    compression = e_final[:, None] - e_initial
    delta_e = expansion[:, :, None, None] + compression
    return delta_e, probability


def _transfer_matrix(transition_prob):
    """The level-transfer matrix T of a drive stroke as nested lists:
    T[m][n] is the weight of landing on level m from level n, the swap
    probability off the diagonal and 1 minus it on the diagonal."""
    if not 0.0 <= transition_prob <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {transition_prob}")
    stay = 1.0 - transition_prob
    return [[stay, transition_prob], [transition_prob, stay]]


def post_expansion_populations(cold_populations, transition_prob):
    """Level occupations s = T p right after the expansion stroke, each
    summed on Python floats as T[m][0] p[0] + T[m][1] p[1]."""
    p_0, p_1 = _checked_populations(cold_populations, "cold").tolist()
    return tuple(t_0 * p_0 + t_1 * p_1 for t_0, t_1 in _transfer_matrix(transition_prob))


def heat_distribution(post_expansion, hot_populations, final_spectrum):
    """Distribution of heat absorbed from the hot reservoir.

    The heating stroke happens at the wide gap, so the only atoms are 0 and
    plus/minus that gap: the medium enters with occupations ``post_expansion``
    and leaves thermalized with occupations ``hot_populations``; level
    transfer during the stroke is unconstrained (full rethermalization), so
    the joint weight is the plain product s_m * q_k.
    """
    import ottospin as o

    s = _checked_populations(post_expansion, "post-expansion")
    q = _checked_populations(hot_populations, "hot")
    e_f = _checked_spectrum(final_spectrum)
    # [m, k]: enter at level m, leave at level k
    values = e_f - e_f[:, None]
    probs = s[:, None] * q
    return o.EnergyDistribution.from_atoms(values.ravel(), probs.ravel(), kind="heat")


def _checked_populations(populations, label):
    pops = np.asarray(populations, dtype=float)
    if pops.shape != (2,):
        raise ValueError(f"{label} populations must be a pair, got shape {pops.shape}")
    first, second = pops.tolist()
    if first < 0.0 or second < 0.0:
        raise ValueError(f"{label} populations must be nonnegative, got {pops}")
    if abs(first + second - 1.0) > 1e-9:
        raise ValueError(f"{label} populations must sum to 1, got {first + second}")
    return pops


def _checked_spectrum(spectrum):
    energies = np.asarray(spectrum, dtype=float)
    if energies.shape != (2,):
        raise ValueError(f"spectrum must be an energy pair, got shape {energies.shape}")
    if energies[1] <= energies[0]:
        raise ValueError(f"spectrum must be ascending, got {energies}")
    return energies


def engine_work_distribution_by_table(protocol, thermal, transition_prob):
    """The engine's work distribution through the (2, 2, 2, 2) history
    table: ``enumerate_histories`` raveled into ``from_atoms``."""
    import ottospin as o

    p = o.thermal_populations(protocol.nu_initial_khz, thermal.kt_cold_pev)
    q = o.thermal_populations(protocol.nu_final_khz, thermal.kt_hot_pev)
    delta_e, probability = enumerate_histories(
        p, q, transition_prob, o.endpoint_spectra(protocol)
    )
    return o.EnergyDistribution.from_atoms(delta_e.ravel(), probability.ravel(), "work")


def engine_heat_distribution_by_populations(protocol, thermal, transition_prob):
    """The engine's heat distribution through ``post_expansion_populations``
    and ``heat_distribution``."""
    import ottospin as o

    p = o.thermal_populations(protocol.nu_initial_khz, thermal.kt_cold_pev)
    q = o.thermal_populations(protocol.nu_final_khz, thermal.kt_hot_pev)
    s = post_expansion_populations(p, transition_prob)
    return heat_distribution(s, q, o.endpoint_spectra(protocol)[1])


def characteristic_samples_verdict(u, values):
    """None when chi samples pass the checks of ``CharacteristicSamples``,
    else the message it raises: every chi finite, chi(0) = 1 for every
    |u| < 1e-15, and chi(-u) = conj(chi(u)) for every u paired, in one
    sorted pass over all samples, with the last sample whose u rounds to -u
    at 12 decimals."""
    u = np.asarray(u, dtype=float)
    vals = np.asarray(values, dtype=np.complex128)
    if not np.isfinite(vals).all():
        return "chi samples must be finite"
    if (np.abs(vals[np.abs(u) < 1e-15] - 1.0) > 1e-12).any():
        return "chi(0) must equal 1"
    keys = np.round(u, 12)
    order = np.argsort(keys, kind="stable")
    pos = np.searchsorted(keys[order], -keys, side="right") - 1
    partner = order[np.maximum(pos, 0)]
    paired = (pos >= 0) & (keys[partner] == -keys)
    if (np.abs(vals[partner] - vals.conj())[paired] > 1e-12).any():
        return "chi(-u) must equal conj(chi(u))"
    return None


def inversion_by_from_atoms(samples, kind="work"):
    """FFT inversion of uniformly sampled chi whose kept lattice atoms go
    through ``EnergyDistribution.from_atoms`` (sort, single-linkage merge)."""
    import ottospin as o

    u = samples.u_per_pev
    n = len(u)
    du = u[1] - u[0]
    indices = np.arange(-(n // 2), n - n // 2)
    energies = indices * (2.0 * np.pi / (n * du))
    spectrum = np.fft.fft(samples.values)[indices % n]
    weights = (np.exp(-1j * u[0] * energies) * spectrum).real / n
    scale = max(float(np.abs(samples.values).sum()) / n, 1.0)
    keep = np.abs(weights) > 16.0 * n * np.finfo(float).eps * scale
    if not keep.any():
        raise ValueError("inversion recovered no atoms above threshold")
    return o.EnergyDistribution.from_atoms(energies[keep], weights[keep], kind)


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


def drive_relative_entropy_decimal(x_cold, x_hot, swap_prob, digits=50):
    """S(rho_exp || rho_hot) + S(rho_comp || rho_cold) for one swap
    probability, from the baths' gap/kT (the cold bath's at the initial gap,
    the hot bath's at the final one): the Gibbs populations p, q and their
    logarithms at ``digits`` decimal digits, summed as
    sum p ln p - sum (T p) ln q + sum q ln q - sum (T q) ln p for the
    transfer matrix T of the swap probability."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        swap = Decimal(swap_prob)

        def gibbs(x):
            x = Decimal(x)
            z = 1 + (-x).exp()
            return (1 / z, (-x).exp() / z), (-z.ln(), -x - z.ln())

        def transfer(pops):
            return (pops[0] * (1 - swap) + pops[1] * swap, pops[0] * swap + pops[1] * (1 - swap))

        def dot(u, v):
            return u[0] * v[0] + u[1] * v[1]

        (p, log_p), (q, log_q) = gibbs(x_cold), gibbs(x_hot)
        return float(dot(p, log_p) - dot(transfer(p), log_q)
                     + dot(q, log_q) - dot(transfer(q), log_p))


def history_entropy_production(protocol, thermal, transition_prob):
    """<sigma> and <e^-sigma> over the sixteen histories [n, m, k, j] of the
    engine's work distribution.  History [n, m, k, j] finds level n before
    and m after the expansion stroke, k before and j after the compression
    stroke; it takes the hot heat Q_h = e_f[k] - e_f[m] and the cold heat
    Q_c = e_i[n] - e_i[j], and produces the entropy
    sigma = -Q_h/kT_hot - Q_c/kT_cold.

    <sigma> is a third route to the mean entropy production, and
    <e^-sigma> = 1 at every transition probability: the transfer matrix is
    doubly stochastic and each bath starts its stroke in its Gibbs state
    (the exchange fluctuation theorem of the Otto cycle).  The weights are
    taken as log p[n] + log T[m, n] + log q[k] + log T[j, k] from the Gibbs
    log-populations -E/kT - log Z, with log Z = gap/2kT +
    log1p(exp(-gap/kT)), which never logs a small population; <e^-sigma> is
    summed over log p - sigma, so a history whose weight underflows still
    counts where e^-sigma overflows.
    """
    gaps = H_PEV_PER_KHZ * np.array([protocol.nu_initial_khz, protocol.nu_final_khz])
    e_initial, e_final = (np.array([-0.5 * gap, 0.5 * gap]) for gap in gaps)
    x = gaps / np.array([thermal.kt_cold_pev, thermal.kt_hot_pev])
    log_p, log_q = np.stack([np.zeros(2), -x], axis=1) - np.log1p(np.exp(-x))[:, None]
    stay = 1.0 - transition_prob
    with np.errstate(divide="ignore"):
        # the transfer matrix is symmetric: log_t[n, m] = log T[m, n]
        log_t = np.log(np.array([[stay, transition_prob], [transition_prob, stay]]))
    log_weight = log_p[:, None, None, None] + log_t[:, :, None, None] + log_q[:, None] + log_t
    heat_hot = (e_final - e_final[:, None])[None, :, :, None]
    heat_cold = (e_initial[:, None] - e_initial)[:, None, None, :]
    sigma = -heat_hot / thermal.kt_hot_pev - heat_cold / thermal.kt_cold_pev
    log_terms = (log_weight - sigma).ravel()
    peak = log_terms.max()
    return (
        float(np.sum(np.exp(log_weight) * sigma)),
        math.exp(peak + math.log(np.sum(np.exp(log_terms - peak)))),
    )


def relative_entropy_logm(a, b):
    """Quantum relative entropy via scipy's matrix logarithm."""
    val = np.trace(a @ (logm(a) - logm(b)))
    return float(np.real(val))


def efficiency_lag(after_expansion, hot_equilibrium, after_compression, cold_equilibrium,
                   mean_heat_hot_pev, beta_cold_per_pev):
    """The paper's efficiency lag from the four cycle states,

        L = [S(rho_exp || rho_hot) + S(rho_comp || rho_cold)] / (beta_cold <Q_hot>),

    each relative entropy through :func:`relative_entropy_logm`; the engine's
    efficiency is efficiency_carnot - L.  Zero hot heat, and a state with a
    non-finite entry, are rejected."""
    if mean_heat_hot_pev == 0.0:
        raise ValueError("efficiency lag undefined for zero hot heat")
    states = (after_expansion, hot_equilibrium, after_compression, cold_equilibrium)
    if not all(np.isfinite(m).all() for m in states):
        raise ValueError("relative entropy needs states with finite entries")
    numerator = (relative_entropy_logm(after_expansion, hot_equilibrium)
                 + relative_entropy_logm(after_compression, cold_equilibrium))
    return numerator / (beta_cold_per_pev * mean_heat_hot_pev)


def extraction_bound(protocol, thermal):
    """Largest transition probability that still permits work extraction.

    Zero when the gap ratio falls outside [1, kT_hot/kT_cold] (no extraction
    is possible at any transition probability there).  Otherwise the unique
    root of the mean-work closed form:

        (nu_f - nu_i)(p_cold - p_hot) / (2 (nu_f p_cold + nu_i p_hot))

    with the cold bath's polarization p_cold at the initial gap and the hot
    bath's p_hot at the final one.
    """
    import ottospin as o

    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    ratio = nu_f / nu_i
    if not 1.0 <= ratio <= thermal.kt_hot_pev / thermal.kt_cold_pev:
        return 0.0
    p_cold = o.polarization(nu_i, thermal.kt_cold_pev)
    p_hot = o.polarization(nu_f, thermal.kt_hot_pev)
    denom = 2.0 * (nu_f * p_cold + nu_i * p_hot)
    if denom == 0.0:
        return 0.0
    return max((nu_f - nu_i) * (p_cold - p_hot) / denom, 0.0)


def adiabatic_swap_probability(nu_i, nu_f, tau_us):
    """Eigenstate swap probability of the expansion drive to second order in
    adiabatic perturbation theory, standard library only.

    In the frame that turns with the drive's field axis, the generator is
    i(A(t) sigma_x + w sigma_z), with A = pi 1e-3 nu(t) rad/us for the
    linear ramp nu(t) and w = pi/(4 tau) rad/us half the turning rate: a
    field (A, 0, w) of length B = sqrt(A^2 + w^2), tilted from x by
    alpha = atan(w/A).  The first-order amplitude has the end terms
    s = sin(alpha/2) and a coupling integral of (alpha'/2) e^{i phi};
    integrating that by parts once leaves the end terms
    kappa = w A'/(4 B^3), with A' = (A_f - A_i)/tau, and

        xi = s_i^2 + s_f^2 + kappa_i^2 + kappa_f^2
             - 2 (s_i s_f + kappa_i kappa_f) cos(Phi)
             + 2 (s_f kappa_i - s_i kappa_f) sin(Phi),

    with the dynamical phase Phi = 2 int_0^tau B dt, which for a linear A
    is [A B + w^2 asinh(A/w)] / A' taken between A_i and A_f.  At
    kappa = 0 and s = w/(2A) this is the first-order form
    (w/2)^2 (1/A_i^2 + 1/A_f^2 - 2 cos(Phi)/(A_i A_f)); the kappa terms add
    ones of order (w/A)^3 (A_f - A_i)/A, which dominate its error on long
    drives.  The error falls as (w/A_i)^4.
    """
    a_i, a_f = math.pi * 1e-3 * nu_i, math.pi * 1e-3 * nu_f
    w = math.pi / (4.0 * tau_us)
    slope = (a_f - a_i) / tau_us

    def antiderivative(a):
        return a * math.hypot(a, w) + w * w * math.asinh(a / w)

    phase = (antiderivative(a_f) - antiderivative(a_i)) / slope
    s_i, s_f = (math.sin(0.5 * math.atan2(w, a)) for a in (a_i, a_f))
    k_i, k_f = (w * slope / (4.0 * math.hypot(a, w) ** 3) for a in (a_i, a_f))
    return (s_i**2 + s_f**2 + k_i**2 + k_f**2
            - 2.0 * (s_i * s_f + k_i * k_f) * math.cos(phase)
            + 2.0 * (s_f * k_i - s_i * k_f) * math.sin(phase))


def serialize_config(cfg):
    """Canonical text of a ``RunConfig``, the inverse of ``parse_config``:
    each section of the parser's key table, in sorted order, with every key
    of it as ``key = value``; ``kt_hot_pev`` is left out when unset, as it
    is only read with ``hot_option = custom``."""
    lines = []
    for section in sorted({section for section, *_ in _KEYS.values()}):
        lines.append(f"[{section}]")
        for field_name, (key_section, key, *_) in _KEYS.items():
            value = getattr(cfg, field_name)
            if key_section == section and not (field_name == "kt_hot_pev" and value is None):
                lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def format_value(value):
    """A config value as the parser reads it back: floats and each entry of
    a float list by repr, None as the empty string."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def eigensystem_eigh(hamiltonian):
    """Energies (ascending) and eigenvector columns of a 2x2 Hermitian matrix
    from LAPACK's ``eigh``, with the package's input checks, degeneracy
    guard and phase rule (each column's first component above 1e-12 made
    real and positive) written out: the reference of the closed form."""
    hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
    if hamiltonian.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {hamiltonian.shape}")
    if not np.isfinite(hamiltonian).all():
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(hamiltonian - hamiltonian.conj().T)) > 1e-12:
        raise ValueError("matrix is not Hermitian")
    energies, vectors = np.linalg.eigh(hamiltonian)
    if abs(energies[1] - energies[0]) < 1e-14:
        raise ValueError("degenerate Hamiltonian")
    vectors = vectors.copy()
    for col in range(2):
        column = vectors[:, col]
        pivot = column[0] if abs(column[0]) > 1e-12 else column[1]
        vectors[:, col] = column * (pivot.conjugate() / abs(pivot))
    return energies, vectors


def eigenvalues_eigvalsh(matrix):
    """Eigenvalues (ascending) of a 4x4 Hermitian matrix from LAPACK's
    ``eigvalsh``, which reads the real diagonal and the lower triangle: the
    reference of the Jacobi rotations behind the process diagnostics."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=np.complex128))


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


def repair_batch_rows(t, r):
    """Bloch-form repair on row-major (n, 3) Bloch vectors r, with (n,) traces
    t: the maximum, norm and scaling as reductions and broadcasts over the
    component axis.  Returns the (n, 3) repaired Bloch vectors."""
    size = np.maximum(np.abs(t), np.abs(r).max(axis=-1))
    size = np.where(size > 0.0, size, 1.0)
    t, r = t / size, r / size[:, None]
    length = np.linalg.norm(r, axis=-1)
    valid = t + length > 0.0
    scale = np.where(valid, 1.0 / np.where(valid, np.maximum(t, length), 1.0), 0.0)
    return scale[:, None] * r


def repair_batch_allocating(t, r):
    """The component-major Bloch repair of ``cycle._repair_batch``, (t (n,),
    r (3, n)) to (3, n), as expressions that each allocate their result:
    the same operations in the same order, so the package's in-place steps
    must give its bits."""
    size = np.maximum(np.maximum(np.abs(t), np.abs(r[0])),
                      np.maximum(np.abs(r[1]), np.abs(r[2])))
    size = np.where(size > 0.0, size, 1.0)
    t, r = t / size, r / size
    length = _length_allocating(r)
    valid = t + length > 0.0
    scale = np.where(valid, 1.0 / np.where(valid, np.maximum(t, length), 1.0), 0.0)
    return scale * r


def relative_entropy_decimal(r, s, digits=50):
    """S(a||b) of the unit-trace states a = (I + r . sigma)/2 and
    b = (I + s . sigma)/2, from the float components of their Bloch vectors
    r and s at ``digits`` decimal digits, through the eigenvalues
    (1 +- |r|)/2 of a and mu_+- = (1 +- |s|)/2 of b: sum p ln p (0 ln 0 read
    as 0, and an |r| above 1 as 1) minus
    tr[a ln b] = [(1 + c) ln mu_+ + (1 - c) ln mu_-]/2, c = r.s/|s| (0 at
    s = 0); +inf where mu_- < 1e-12."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        r, s = ([Decimal(float(v)) for v in vector] for vector in (r, s))
        r_len = min(sum(v * v for v in r).sqrt(), Decimal(1))
        s_len = sum(v * v for v in s).sqrt()
        half = Decimal("0.5")
        mu_plus, mu_minus = half * (1 + s_len), half * (1 - s_len)
        if mu_minus < Decimal("1e-12"):
            return math.inf
        along = sum(u * v for u, v in zip(r, s)) / s_len if s_len > 0 else Decimal(0)
        entropy = sum(p * p.ln() for p in (half * (1 + r_len), half * (1 - r_len)) if p > 0)
        cross = half * ((1 + along) * mu_plus.ln() + (1 - along) * mu_minus.ln())
        return float(entropy - cross)


def _length_allocating(r):
    return np.sqrt((r[0] * r[0] + r[1] * r[1]) + r[2] * r[2])


def monte_carlo_noise(seed, n_samples, width):
    """Hermitian noise on the four cycle states (cold, hot, after expansion,
    after compression) of each Monte Carlo sample, shape (n_samples, 4, 2, 2).

    The documented stream layout, one draw at a time: one generator on
    ``SeedSequence(seed)`` draws, sample by sample and for each state in that
    order, four numbers (a, x, y, z) of width sqrt(2) * width.  The noise is
    (a I + (x, y, z) . sigma)/2, so the repair of rho + N sees the trace
    1 + a and the Bloch shift (x, y, z).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = np.empty((n_samples, 4, 2, 2), dtype=complex)
    for i in range(n_samples):
        for k in range(4):
            a, x, y, z = rng.normal(0.0, np.sqrt(2.0) * width, 4)
            noise[i, k] = [[(a + z) / 2, (x - 1j * y) / 2],
                           [(x + 1j * y) / 2, (a - z) / 2]]
    return noise


def monte_carlo_heats_eight_draws(seed, n_samples, width, states, h_cold, h_hot):
    """Hot and cold heat of each Monte Carlo sample under the eight-draw
    stream: complex noise re + i im of width ``width`` on every matrix
    element of the four cycle states (cold, hot, after expansion, after
    compression), drawn as one (n_samples, 4, 2, 2, 2) array in C order (per
    sample and state, the real part, then the imaginary part).  Every noisy
    state is Hermitized, clipped and renormalized by one batched
    eigendecomposition, as :func:`repair_state_eigh` does one at a time.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.normal(0.0, width, (n_samples, 4, 2, 2, 2))
    noisy = np.asarray(states) + (draws[:, :, 0] + 1j * draws[:, :, 1])
    w, v = np.linalg.eigh(0.5 * (noisy + noisy.conj().swapaxes(-1, -2)))
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    w = np.where(total > 0.0, w / np.where(total > 0.0, total, 1.0), 0.5)
    cold, hot, after_exp, after_comp = np.moveaxis(
        (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2), 1, 0
    )
    heat_hot = np.einsum("ij,nji->n", h_hot, hot - after_exp).real
    heat_cold = np.einsum("ij,nji->n", h_cold, cold - after_comp).real
    return heat_hot, heat_cold


def trace_norm_svd(m):
    """Sum of singular values, the independent route to trace distance."""
    return float(np.sum(svdvals(m)))


def haar_unitary(rng):
    """Haar-random 2x2 unitary from a QR decomposition."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sequential_magnus_product(nu1_khz, nu2_khz, tau_us, n_steps, compression):
    """Plain-loop fourth-order Magnus product in the frame that turns with the
    drive's field axis; order-of-multiplication reference.

    The field axis of either drive turns about z at a constant rate: from
    angle 0 by +pi/2 (expansion), or from 3 pi/2 by -pi/2 (compression, whose
    field is the expansion one negated and reversed).  With
    V(t) = exp(-i theta(t) sigma_z / 2) and U = V U_R, the turning-frame
    generator is B = V^dagger A V + i theta'/2 sigma_z, with A = -i H / hbar
    from the lab-frame Hamiltonian.  Each step is the matrix exponential of
    the two-term Magnus exponent Omega = dt/2 (B_- + B_+) + sqrt(3)/12 dt^2
    [B_+, B_-], B sampled at the two Gauss-Legendre nodes of the step, and
    the product is framed by V(tau) on the left and V(0)^dagger on the right.
    """
    start, turn = (1.5 * np.pi, -0.5 * np.pi) if compression else (0.0, 0.5 * np.pi)

    def frame(t):
        return expm(-0.5j * (start + turn * t / tau_us) * _SZ)

    def generator(t):
        v = frame(t)
        a = -1j / HBAR_PEV_US * drive_hamiltonian(t, nu1_khz, nu2_khz, tau_us, compression)
        return v.conj().T @ a @ v + 0.5j * (turn / tau_us) * _SZ

    dt = tau_us / n_steps
    offset = np.sqrt(3.0) / 6.0
    u = frame(0.0).conj().T
    for i in range(n_steps):
        b_early, b_late = (generator((i + 0.5 + node) * dt) for node in (-offset, offset))
        omega = 0.5 * dt * (b_early + b_late) + (np.sqrt(3.0) / 12.0) * dt**2 * (
            b_late @ b_early - b_early @ b_late
        )
        u = expm(omega) @ u
    return frame(tau_us) @ u


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

# Relative entropy of the maximally mixed state from diag(0.3, 0.7).
REL_ENTROPY_HALF_VS_37 = 0.08717669357238889

# Ideal-swap efficiency of the default ramp and the two hot-bath ceilings.
EFFICIENCY_IDEAL_SWAP = 1.0 - 2.0 / 3.6
CARNOT_OPTION_A = 1.0 - 6.6 / 21.5
CARNOT_OPTION_B = 1.0 - 6.6 / 40.5

# Trace distance between the do-nothing process and the fully mixing one.
DISTANCE_IDENTITY_DEPOLARIZING = 0.75
