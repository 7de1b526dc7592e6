"""Two-level working-medium primitives: Pauli algebra, the gap drive, Gibbs
states, and eigensystems.

Unit conventions used throughout the package:

* energy in peV
* frequency in kHz
* time in us

A splitting of 1 kHz corresponds to a gap of ``PLANCK_PEV_PER_KHZ`` peV, a
kHz frequency acting for a us accumulates ``KHZ_US`` cycles of phase, and
power is reported per ms, ``US_PER_MS`` us; those three constants are the
only unit conversions anywhere in the code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Planck constant in peV per kHz of splitting (h * 1 kHz = 4.1357 peV).
PLANCK_PEV_PER_KHZ = 4.135667696

#: Dimensionless product of 1 kHz and 1 us.
KHZ_US = 1e-3

# Microseconds per millisecond (power is reported per ms, times are in us).
US_PER_MS = 1000.0

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY = np.eye(2, dtype=np.complex128)

for _m in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY):
    _m.setflags(write=False)


@dataclass(frozen=True)
class DriveProtocol:
    """Linear gap ramp of the expansion stroke, ``nu_initial_khz`` at t = 0 to
    ``nu_final_khz`` at ``tau_us``.  The compression stroke has no protocol of
    its own: its Hamiltonian at time t is ``-drive_hamiltonian(tau_us - t, p)``
    and its propagator is ``evolve_unitary(p).matrix.conj().T``."""

    nu_initial_khz: float
    nu_final_khz: float
    tau_us: float

    def __post_init__(self) -> None:
        # NaN fails these chained comparisons as inf and nonpositive values do
        nu_i, nu_f = self.nu_initial_khz, self.nu_final_khz
        if not (0.0 < nu_i < math.inf and 0.0 < nu_f < math.inf):
            raise ValueError(
                f"drive frequencies must be positive and finite, got ({nu_i}, {nu_f}) kHz"
            )
        _check_duration(self.tau_us)


def _check_duration(tau_us: float) -> None:
    # NaN fails this chained comparison as inf and nonpositive values do
    if not 0.0 < tau_us < math.inf:
        raise ValueError(f"drive duration must be positive and finite, got {tau_us} us")


def _check_transition_probability(transition_prob: float) -> None:
    # NaN fails this chained comparison as values outside [0, 1] do
    if not 0.0 <= transition_prob <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {transition_prob}")


@dataclass(frozen=True)
class ThermalParams:
    """Reservoir temperatures as energies (Boltzmann constant absorbed)."""

    kt_cold_pev: float
    kt_hot_pev: float

    def __post_init__(self) -> None:
        for label, value in (("cold", self.kt_cold_pev), ("hot", self.kt_hot_pev)):
            if not value > 0.0:
                raise ValueError(f"kT ({label}) must be positive, got {value} peV")


def gap_frequency(t_us: float, protocol: DriveProtocol) -> float:
    """Instantaneous splitting frequency in kHz at time ``t_us`` of the ramp."""
    if not 0.0 <= t_us <= protocol.tau_us:
        raise ValueError(f"time {t_us} us outside the drive window [0, {protocol.tau_us}] us")
    frac = t_us / protocol.tau_us
    return protocol.nu_initial_khz * (1.0 - frac) + protocol.nu_final_khz * frac


def drive_hamiltonian(t_us: float, protocol: DriveProtocol) -> np.ndarray:
    """Drive Hamiltonian (peV) at time ``t_us``.

    The expansion drive opens the gap while rotating the field axis from x at
    t=0 to y at t=tau:

        H(t) = -(gap(t)/2) * (cos(pi t / 2 tau) sigma_x + sin(pi t / 2 tau) sigma_y)

    The compression drive is the negated, time-reversed expansion drive,
    H_c(t) = -H_e(tau - t) = ``-drive_hamiltonian(tau - t, p)``, so its
    propagator is the exact adjoint ``evolve_unitary(p).matrix.conj().T``.
    """
    nu = gap_frequency(t_us, protocol)
    # t/tau is exactly 1 at the ramp's end, so H(tau) has the same bits for
    # every tau and the hot Gibbs state does not depend on it
    angle = 0.5 * math.pi * (t_us / protocol.tau_us)
    gap = PLANCK_PEV_PER_KHZ * nu
    return -0.5 * gap * (math.cos(angle) * PAULI_X + math.sin(angle) * PAULI_Y)


def _require_hermitian(matrix: np.ndarray) -> np.ndarray:
    """The matrix as a complex128 array once it is 2x2, finite and Hermitian
    to 1e-12; the checks read its four entries as Python complex numbers."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    (a, b), (c, d) = matrix.tolist()
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError("matrix has non-finite entries")
    # the entries of |M - M^dagger| are 2|Im a|, 2|Im d| and, in both off-
    # diagonal corners, |b - c*|, whose hypot goes to inf where abs() of a
    # complex number would raise
    skew = b - c.conjugate()
    if max(2.0 * abs(a.imag), 2.0 * abs(d.imag), math.hypot(skew.real, skew.imag)) > 1e-12:
        raise ValueError("matrix is not Hermitian")
    return matrix


def _bloch(matrices: np.ndarray) -> np.ndarray:
    """r of the Hermitian parts (t I + r . sigma)/2 of a stack of matrices,
    with the components on the first axis: r is ``(3, ...)``."""
    upper, lower = matrices[..., 0, 0].real, matrices[..., 1, 1].real
    off = matrices[..., 0, 1] + np.conj(matrices[..., 1, 0])
    return np.stack([off.real, -off.imag, upper - lower])


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for stacks of 2x2 matrices that broadcast over their leading axes.
    An unoptimized einsum sums in its own loop; a matmul would call into
    BLAS, whose first call allocates its buffers."""
    return np.einsum("...ij,...jk->...ik", x, y)


def eigensystem(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies (ascending) and eigenvector columns of a 2x2 Hermitian matrix.

    Like ``eigh``, it reads the real diagonal (a, d) and the lower triangle,
    so H = [[a, c], [c*, d]] with c the conjugate of the (1, 0) entry.  With
    m = (a + d)/2, h = (a - d)/2 and r = hypot(h, |c|), the energies are
    m -+ r, and with s = |h| + r, which adds two magnitudes, the columns

        (c, -s), (s, c*)  for h >= 0;   (-s, c*), (c, s)  for h < 0

    solve (H - E) v = 0 (the row of H - E whose diagonal entry is -s or s)
    and are orthogonal term by term; each is normalized by hypot.  The
    entries are first scaled by a power of two, exact in both directions,
    so that the largest is of order one and no square or sum overflows or
    underflows.

    The global phase of each eigenvector is fixed by multiplying it by
    conj(v)/|v|, v its first component of appreciable magnitude, so that v
    becomes positive and real up to rounding: the two cross products of the
    complex product round apart, and the first column of the default
    engine's sigma_y endpoint starts 0.7071067811865476 + 6.2e-33j.  The
    rule is deterministic, so downstream quantities built from the vectors
    are reproducible bit for bit.
    """
    hamiltonian = _require_hermitian(hamiltonian)
    a, d = hamiltonian[0, 0].real, hamiltonian[1, 1].real
    lower = hamiltonian[1, 0]
    entries = (a, d, lower.real, -lower.imag)
    exponent = math.frexp(max(map(abs, entries)))[1]
    a, d, c_re, c_im = (math.ldexp(x, -exponent) for x in entries)
    half, mean = (a - d) / 2.0, (a + d) / 2.0
    radius = math.hypot(half, c_re, c_im)
    # an energy, or a gap, past the float range is inf, as from eigh
    with np.errstate(over="ignore"):
        energies = np.ldexp([mean - radius, mean + radius], exponent)
        if abs(energies[1] - energies[0]) < 1e-14:
            raise ValueError("degenerate Hamiltonian")
    s = abs(half) + radius
    norm = math.hypot(s, c_re, c_im)
    c, s = complex(c_re, c_im) / norm, s / norm
    if half >= 0.0:
        vectors = np.array([[c, s], [-s, c.conjugate()]])
    else:
        vectors = np.array([[-s, c], [c.conjugate(), s]])
    for col in range(2):
        column = vectors[:, col]
        pivot = column[0] if abs(column[0]) > 1e-12 else column[1]
        vectors[:, col] = column * (pivot.conjugate() / abs(pivot))
    return energies, vectors


def gibbs_state(hamiltonian: np.ndarray, kt_pev: float) -> np.ndarray:
    """Thermal equilibrium state exp(-H/kT), normalized.

    For H = h0 I + h . sigma this is (I - tanh(|h|/kT) h/|h| . sigma)/2; the
    trace part h0 drops out.  ``kt_pev`` may be ``math.inf``, giving the
    maximally mixed state.
    """
    hamiltonian = _require_hermitian(hamiltonian)
    if not kt_pev > 0.0:
        raise ValueError(f"kT must be positive, got {kt_pev} peV")
    if math.isinf(kt_pev):
        return IDENTITY / 2.0
    field = _bloch(hamiltonian)
    gap = math.hypot(*field)  # 2|h|, the level splitting
    if gap < 1e-14:
        raise ValueError("degenerate Hamiltonian")
    sigma = field[0] * PAULI_X + field[1] * PAULI_Y + field[2] * PAULI_Z
    return 0.5 * (IDENTITY - (math.tanh(0.5 * gap / kt_pev) / gap) * sigma)


def thermal_populations(nu_khz: float, kt_pev: float) -> tuple[float, float]:
    """(ground, excited) Gibbs populations for a splitting of ``nu_khz``."""
    ratio = _gap_over_kt(nu_khz, kt_pev)
    try:
        excited = 1.0 / (1.0 + math.exp(ratio))
    except OverflowError:
        # gap/kT above ~709.8: 1 + exp(-ratio) == 1, so this is the same weight
        excited = math.exp(-ratio)
    return 1.0 - excited, excited


def polarization(nu_khz: float, kt_pev: float) -> float:
    """Population difference p_ground - p_excited = tanh(gap / 2 kT), taken
    as the tanh itself: 1 - 2 p_excited loses the digits of a small gap/kT."""
    return math.tanh(0.5 * _gap_over_kt(nu_khz, kt_pev))


def _gap_over_kt(nu_khz: float, kt_pev: float) -> float:
    """gap/kT of a splitting of ``nu_khz`` in a bath of ``kt_pev``; 0 for an
    infinite bath."""
    if not nu_khz > 0.0:
        raise ValueError(f"splitting frequency must be positive, got {nu_khz} kHz")
    if not kt_pev > 0.0:
        raise ValueError(f"kT must be positive, got {kt_pev} peV")
    if math.isinf(kt_pev):
        return 0.0
    return PLANCK_PEV_PER_KHZ * nu_khz / kt_pev


def _endpoint_polarizations(
    protocol: DriveProtocol, thermal: ThermalParams
) -> tuple[float, float]:
    """(p_cold, p_hot): the cold bath's polarization at the initial gap and
    the hot bath's at the final gap."""
    return (polarization(protocol.nu_initial_khz, thermal.kt_cold_pev),
            polarization(protocol.nu_final_khz, thermal.kt_hot_pev))
