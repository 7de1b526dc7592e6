"""Two-level working-medium primitives: Pauli algebra, the gap drive, Gibbs
states, spin temperatures, and eigensystems.

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

import enum
import math
import warnings
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


class Phase(enum.Enum):
    """Direction of the gap ramp."""

    EXPANSION = "expansion"
    COMPRESSION = "compression"


@dataclass(frozen=True)
class DriveProtocol:
    """Linear gap ramp between two splitting frequencies over a fixed window.

    ``nu_initial_khz`` and ``nu_final_khz`` always describe the forward
    (expansion) ramp; ``phase`` selects whether the protocol runs that ramp or
    its time-reversed negation.  A COMPRESSION protocol therefore starts at
    the wide gap: ``gap_frequency(0, p)`` is ``nu_final_khz``.
    """

    nu_initial_khz: float
    nu_final_khz: float
    tau_us: float
    phase: Phase = Phase.EXPANSION

    def __post_init__(self) -> None:
        # NaN fails these chained comparisons as inf and nonpositive values do
        nu_i, nu_f = self.nu_initial_khz, self.nu_final_khz
        if not (0.0 < nu_i < math.inf and 0.0 < nu_f < math.inf):
            raise ValueError(
                f"drive frequencies must be positive and finite, got ({nu_i}, {nu_f}) kHz"
            )
        if not 0.0 < self.tau_us < math.inf:
            raise ValueError(
                f"drive duration must be positive and finite, got {self.tau_us} us"
            )

    @property
    def compression_factor(self) -> float:
        """Ratio of final to initial gap frequency."""
        return self.nu_final_khz / self.nu_initial_khz


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
        raise ValueError(
            f"time {t_us} us outside the drive window [0, {protocol.tau_us}] us"
        )
    s = protocol.tau_us - t_us if protocol.phase is Phase.COMPRESSION else t_us
    frac = s / protocol.tau_us
    return protocol.nu_initial_khz * (1.0 - frac) + protocol.nu_final_khz * frac


def drive_hamiltonian(t_us: float, protocol: DriveProtocol) -> np.ndarray:
    """Drive Hamiltonian (peV) at time ``t_us``.

    The expansion drive opens the gap while rotating the field axis from x at
    t=0 to y at t=tau:

        H(t) = -(gap(t)/2) * (cos(pi t / 2 tau) sigma_x + sin(pi t / 2 tau) sigma_y)

    The compression drive is the negated, time-reversed expansion drive,
    H_c(t) = -H_e(tau - t), which is what makes the reversed propagator the
    exact adjoint of the forward one.
    """
    nu = gap_frequency(t_us, protocol)
    if protocol.phase is Phase.COMPRESSION:
        s = protocol.tau_us - t_us
        sign = -1.0
    else:
        s = t_us
        sign = 1.0
    # s/tau is exactly 1 at the ramp's end, so H(tau) has the same bits for
    # every tau and the hot Gibbs state does not depend on it
    angle = 0.5 * math.pi * (s / protocol.tau_us)
    gap = PLANCK_PEV_PER_KHZ * nu
    return sign * (-0.5 * gap) * (math.cos(angle) * PAULI_X + math.sin(angle) * PAULI_Y)


def _require_hermitian(matrix: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.conj().T)) > atol:
        raise ValueError("matrix is not Hermitian")
    return matrix


def _bloch(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) of the Hermitian parts (t I + r . sigma)/2 of matrices."""
    upper, lower = matrices[..., 0, 0].real, matrices[..., 1, 1].real
    off = matrices[..., 0, 1] + np.conj(matrices[..., 1, 0])
    return upper + lower, np.stack([off.real, -off.imag, upper - lower], axis=-1)


def eigensystem(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies (ascending) and eigenvector columns of a 2x2 Hermitian matrix.

    The global phase of each eigenvector is fixed by making its first
    component of appreciable magnitude real and positive, so downstream
    quantities built from the vectors are reproducible bit for bit.
    """
    hamiltonian = _require_hermitian(hamiltonian)
    energies, vectors = np.linalg.eigh(hamiltonian)
    if abs(energies[1] - energies[0]) < 1e-14:
        raise ValueError("degenerate Hamiltonian")
    vectors = vectors.copy()
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
    field = _bloch(hamiltonian)[1]
    gap = math.hypot(*field)  # 2|h|, the level splitting
    if gap < 1e-14:
        raise ValueError("degenerate Hamiltonian")
    sigma = field[0] * PAULI_X + field[1] * PAULI_Y + field[2] * PAULI_Z
    return 0.5 * (IDENTITY - (math.tanh(0.5 * gap / kt_pev) / gap) * sigma)


def thermal_populations(nu_khz: float, kt_pev: float) -> tuple[float, float]:
    """(ground, excited) Gibbs populations for a splitting of ``nu_khz``."""
    if nu_khz <= 0.0:
        raise ValueError(f"splitting frequency must be positive, got {nu_khz} kHz")
    if not kt_pev > 0.0:
        raise ValueError(f"kT must be positive, got {kt_pev} peV")
    if math.isinf(kt_pev):
        return 0.5, 0.5
    ratio = PLANCK_PEV_PER_KHZ * nu_khz / kt_pev
    try:
        excited = 1.0 / (1.0 + math.exp(ratio))
    except OverflowError:
        # gap/kT above ~709.8: 1 + exp(-ratio) == 1, so this is the same weight
        excited = math.exp(-ratio)
    return 1.0 - excited, excited


def polarization(nu_khz: float, kt_pev: float) -> float:
    """Population difference p_ground - p_excited = tanh(gap / 2 kT)."""
    if math.isinf(kt_pev):
        return 0.0
    ground, excited = thermal_populations(nu_khz, kt_pev)
    return ground - excited


def spin_temperature(p_ground: float, p_excited: float, nu_khz: float) -> float:
    """Effective temperature (peV) of a two-level population pair.

    kT = gap / ln(p_ground / p_excited).  Only the population ratio matters,
    so inputs that do not quite sum to one are renormalized with a warning
    rather than rejected (measured populations routinely carry that defect).
    """
    if nu_khz <= 0.0:
        raise ValueError(f"splitting frequency must be positive, got {nu_khz} kHz")
    if p_excited <= 0.0:
        raise ValueError(f"excited population must be positive, got {p_excited}")
    if p_ground <= p_excited:
        raise ValueError(
            "non-positive-temperature populations: "
            f"p_ground={p_ground} <= p_excited={p_excited}"
        )
    total = p_ground + p_excited
    if abs(total - 1.0) > 1e-6:
        warnings.warn(
            f"populations sum to {total}, renormalizing", stacklevel=2
        )
    gap = PLANCK_PEV_PER_KHZ * nu_khz
    return gap / math.log(p_ground / p_excited)
