"""Time-ordered unitary evolution under the gap drive and the eigenstate
transition probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import KHZ_US, DriveProtocol, Phase, eigensystem

#: Starting Magnus step count for the converged propagator.
DEFAULT_N_STEPS = 64

#: Max-norm change under step doubling at which the product counts as converged.
CONVERGENCE_TOLERANCE = 1e-8

_MAX_DOUBLINGS = 6

# sqrt(3)/6: offset of the two Gauss-Legendre nodes from the step midpoint (in
# steps), and the weight of the Magnus cross-product term.
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0


def slice_product(
    nu_start_khz: float,
    nu_end_khz: float,
    tau_us: float,
    n_steps: int,
    compression: bool,
) -> np.ndarray:
    """Time-ordered product of fourth-order Magnus steps for the gap drive.

    The drive generator is a real vector on the Pauli basis,
    ``-i H(t) / hbar = i a(t) . sigma`` with

        a(t) = s * pi * nu(t) * KHZ_US * (cos phi(t), sin phi(t), 0)   [rad/us]

    (``KHZ_US`` converts kHz*us to cycles), ``phi`` the instantaneous rotation
    angle of the field axis, and ``s = +1`` for the forward (expansion) ramp,
    ``-1`` for the reversed (compression) ramp.  Each step of width ``dt``
    samples ``a`` at the two Gauss-Legendre nodes
    ``t_k + (1/2 -+ sqrt(3)/6) dt`` and takes the two-term Magnus exponent

        c = dt/2 (a_- + a_+) + sqrt(3)/6 dt^2 (a_- x a_+)

    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), whose
    exponential is the axis-angle rotation ``cos|c| I + i sin|c| c^ . sigma``.
    The local error is fifth order in ``dt``.  Steps are applied in time
    order: the latest ends up leftmost in the product.  All steps are built
    in one vectorized pass and multiplied by a pairwise (balanced-tree)
    reduction, so the Python-level loop runs O(log n) times.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if tau_us <= 0.0:
        raise ValueError(f"tau_us must be positive, got {tau_us}")

    dt = tau_us / n_steps
    t_mid = (np.arange(n_steps) + 0.5) * dt
    # columns: the earlier and the later Gauss node of each step
    t_nodes = t_mid[:, None] + np.array([-_GAUSS_OFFSET, _GAUSS_OFFSET]) * dt
    # the compression drive replays the forward ramp backwards and negated
    s_arg = tau_us - t_nodes if compression else t_nodes
    nu = nu_start_khz + (nu_end_khz - nu_start_khz) * (s_arg / tau_us)
    phi = 0.5 * np.pi * s_arg / tau_us
    amp = (-1.0 if compression else 1.0) * np.pi * nu * KHZ_US
    ax = amp * np.cos(phi)
    ay = amp * np.sin(phi)

    cx = 0.5 * dt * (ax[:, 0] + ax[:, 1])
    cy = 0.5 * dt * (ay[:, 0] + ay[:, 1])
    cz = _GAUSS_OFFSET * dt * dt * (ax[:, 0] * ay[:, 1] - ay[:, 0] * ax[:, 1])
    angle = np.sqrt(cx * cx + cy * cy + cz * cz)
    cos_t = np.cos(angle)
    # i sin|c| / |c|, safe at |c| = 0
    isinc = 1j * np.sinc(angle / np.pi)

    mats = np.empty((n_steps, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = cos_t + isinc * cz
    mats[:, 1, 1] = cos_t - isinc * cz
    mats[:, 0, 1] = isinc * (cx - 1j * cy)
    mats[:, 1, 0] = isinc * (cx + 1j * cy)

    # pairwise reduction; mats stays ordered earliest -> latest throughout,
    # and each pair collapses as later @ earlier
    while len(mats) > 1:
        if len(mats) % 2:
            tail, body = mats[-1:], mats[:-1]
        else:
            tail, body = None, mats
        paired = body[1::2] @ body[0::2]
        mats = paired if tail is None else np.concatenate([paired, tail])
    return mats[0]


class ConvergenceError(RuntimeError):
    """Raised when step doubling fails to stabilize the Magnus product."""


@dataclass(frozen=True)
class UnitaryMap:
    """A 2x2 unitary with the protocol and Magnus step count that produced it."""

    matrix: np.ndarray
    protocol: DriveProtocol
    n_steps: int

    def __post_init__(self) -> None:
        defect = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(2)))
        if defect > 1e-10:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")


def evolve_unitary(
    protocol: DriveProtocol, n_steps: int = DEFAULT_N_STEPS
) -> UnitaryMap:
    """Propagator of the drive as a time-ordered product of Magnus steps.

    Each step is the exact exponential of the fourth-order Magnus exponent
    over the step (see :func:`slice_product`), so the global error is fourth
    order in the step width.  Starting from ``n_steps``, the step count is
    doubled until the product moves by less than ``CONVERGENCE_TOLERANCE`` in
    max-norm, and the finer product is returned; the metadata records the
    step count actually used.  Raises :class:`ConvergenceError` if the
    tolerance is still unmet after six doublings.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    compression = protocol.phase is Phase.COMPRESSION
    args = (protocol.nu_initial_khz, protocol.nu_final_khz, protocol.tau_us)

    current = slice_product(*args, n_steps, compression)
    steps = n_steps
    for _ in range(_MAX_DOUBLINGS):
        finer = slice_product(*args, 2 * steps, compression)
        if np.max(np.abs(finer - current)) < CONVERGENCE_TOLERANCE:
            return UnitaryMap(matrix=finer, protocol=protocol, n_steps=2 * steps)
        current, steps = finer, 2 * steps
    raise ConvergenceError(
        f"Magnus product not converged to {CONVERGENCE_TOLERANCE} after "
        f"{_MAX_DOUBLINGS} doublings from n_steps={n_steps}"
    )


def transition_probability(
    unitary: UnitaryMap, h_initial: np.ndarray, h_final: np.ndarray
) -> float:
    """Probability that the drive flips the medium between instantaneous
    eigenstates of the endpoint Hamiltonians.

    Both cross elements |<up_f|U|down_i>|^2 and |<down_f|U|up_i>|^2 are
    computed; unitarity of a 2x2 map forces them equal, and that symmetry is
    asserted (to 1e-9) rather than trusted.  Their mean is returned.
    """
    _, vec_i = eigensystem(h_initial)
    _, vec_f = eigensystem(h_final)
    overlap = vec_f.conj().T @ unitary.matrix @ vec_i
    up = abs(overlap[1, 0]) ** 2
    down = abs(overlap[0, 1]) ** 2
    if abs(up - down) >= 1e-9:
        raise RuntimeError(
            f"transition-probability symmetry violated: {up} vs {down}"
        )
    return float(min(max(0.5 * (up + down), 0.0), 1.0))


def propagate_state(rho: np.ndarray, unitary: UnitaryMap) -> np.ndarray:
    """Conjugate a state by the propagator: U rho U^dagger."""
    return unitary.matrix @ np.asarray(rho, dtype=np.complex128) @ unitary.matrix.conj().T
