"""Time-ordered unitary evolution under the gap drive and the eigenstate
transition probability.

One Magnus kernel, :func:`cayley_klein_product`, builds the expansion
propagators of a whole array of drive durations at one step count, in the
frame that turns with the drive's field axis; :func:`evolve_unitaries`
doubles the step count of each duration in lockstep until it converges, and
``_flip_probabilities`` takes every propagator's eigenstate flip probability
from the endpoint eigenvectors.  :func:`slice_product`,
:func:`evolve_unitary` and :func:`transition_probability` are their
one-duration cases.  The compression drive H_c(t) = -H_e(tau - t) is the
same sweep run backwards, its axis turning from angle 3 pi/2 to pi.  In its
own turning frame each step's exponent is the expansion one's in reverse
order with c_z negated, and the frame's ends negate c_x and c_y and leave
V(tau)^dagger on the right, so its product is the expansion one's adjoint
step for step: the compression propagator is ``U.conj().T``.

Nothing here is kept between calls: every call runs its escalation, and the
Monte Carlo keeps what it repeats one layer up, as point states
(``cycle._kept_points``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spin import KHZ_US, DriveProtocol, _check_duration, _product, eigensystem

#: Starting Magnus step count for the converged propagator.
DEFAULT_N_STEPS = 64

#: Max-norm change under step doubling at which the product counts as converged.
CONVERGENCE_TOLERANCE = 1e-8

_MAX_DOUBLINGS = 6

# the end rotation V(tau) = exp(-i pi sigma_z / 4) on a Cayley-Klein pair
_END_PHASE = np.exp(-0.25j * np.pi)


def cayley_klein_product(
    nu_start_khz: float, nu_end_khz: float, tau_list_us: Sequence[float], n_steps: int
) -> np.ndarray:
    """Time-ordered products of fourth-order Magnus steps for the expansion
    drive, one per drive duration, as Cayley-Klein pairs.

    The drive generator ``-i H / hbar = i A(t) (cos phi sigma_x + sin phi
    sigma_y)``, with ``A = pi * nu(t) * KHZ_US`` [rad/us] (``KHZ_US``
    converts kHz*us to cycles), turns its axis at the constant rate
    ``phi(t) = pi t / 2 tau``.  In the frame that turns with it,
    ``U = V(t) U_R`` with ``V(t) = exp(-i phi sigma_z / 2)``, the drive is a
    finite-duration Landau-Zener sweep (Vitanov & Garraway, Phys. Rev. A 53
    (1996) 4288):

        dU_R/dt = i (A(t) sigma_x + w sigma_z) U_R,   w = pi / (4 tau).

    Each of the ``n`` steps takes the two-node Gauss-Legendre Magnus exponent
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), whose local
    error is fifth order in ``dt = tau / n``.  A is linear in t, so the
    nodes collapse exactly to ``c = (dt A(midpoint), c_y, pi / (4 n))``,
    where ``c_y = pi^2 KHZ_US (nu_end - nu_start) tau / (24 n^3)`` is the
    cross term ``sqrt(3)/6 dt^2 (a_- x a_+)`` of the node vectors
    ``(A, 0, w)``.  Its exponential is the SU(2) rotation
    ``cos|c| I + i sin|c| c^ . sigma``; as ``c_z > 0``, ``|c|`` never
    vanishes.

    Every rotation, and every product of them, is ``[[a, b], [-b*, a*]]``, so
    a step is held as its Cayley-Klein pair ``a = cos|c| + i sinc|c| c_z``,
    ``b = i sinc|c| (c_x - i c_y)`` and two of them compose as

        (a1, b1)(a2, b2) = (a1 a2 - b1 b2*, a1 b2 + b1 a2*).

    All steps of all durations are built in one vectorized pass into arrays
    of shape ``(n_tau, n_steps)`` and multiplied by a pairwise
    (balanced-tree) reduction along the step axis, later times earlier, so
    the latest step ends up leftmost and the Python-level loop runs
    O(log n) times.  The end rotation ``V(tau) = exp(-i pi sigma_z / 4)`` is
    one phase ``exp(-i pi / 4)`` on both entries of every product.  Returns
    the products' ``(a, b)`` stacked as an array of shape ``(2, n_tau)``.
    """
    # np.arange gives an empty array, not an error, at 2**63 - 1 and above
    if n_steps >= 2**63 - 1:
        raise ValueError(f"n_steps {n_steps} is too large for an array")
    midpoint = (np.arange(n_steps) + 0.5) / n_steps
    amp = np.pi * KHZ_US * (nu_start_khz + (nu_end_khz - nu_start_khz) * midpoint)
    taus = np.asarray(tau_list_us, dtype=np.float64)[:, None]
    c_x = (taus / n_steps) * amp
    # float: the cube of a numpy integer step count would wrap past 2**21
    c_y = (np.pi**2 * KHZ_US * (nu_end_khz - nu_start_khz) / (24.0 * float(n_steps) ** 3)) * taus
    c_z = np.pi / (4 * n_steps)
    angle = np.sqrt(c_x * c_x + (c_y * c_y + c_z * c_z))
    sinc = np.sin(angle) / angle
    pairs = np.empty((2, *angle.shape), dtype=np.complex128)
    np.cos(angle, out=pairs[0].real)
    np.multiply(sinc, c_z, out=pairs[0].imag)
    np.multiply(sinc, c_y, out=pairs[1].real)
    np.multiply(sinc, c_x, out=pairs[1].imag)

    # pairwise reduction; pairs stays ordered earliest -> latest along the
    # last axis, each pair collapses as later * earlier, an odd tail is
    # carried to the next round
    while (n := pairs.shape[-1]) > 1:
        earlier, later = pairs[..., 0 : n - 1 : 2], pairs[..., 1::2]
        # (a_l a_e, a_l b_e) -+ (b_l b_e*, b_l a_e*)
        paired = later[0] * earlier
        cross = later[1] * earlier[::-1].conj()
        paired[0] -= cross[0]
        paired[1] += cross[1]
        if n % 2:
            paired = np.concatenate([paired, pairs[..., -1:]], axis=-1)
        pairs = paired
    return _END_PHASE * pairs[..., 0]


def slice_product(
    nu_start_khz: float, nu_end_khz: float, tau_us: float, n_steps: int
) -> np.ndarray:
    """Time-ordered product of ``n_steps`` fourth-order Magnus steps for the
    expansion drive of one duration, as a 2x2 matrix (see
    :func:`cayley_klein_product`)."""
    _check_step_count(n_steps)
    _check_duration(tau_us)
    return _matrices(cayley_klein_product(nu_start_khz, nu_end_khz, [tau_us], n_steps))[0]


def _check_step_count(n_steps: int) -> None:
    if not (isinstance(n_steps, numbers.Integral) and n_steps >= 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps}")


class ConvergenceError(RuntimeError):
    """Raised when step doubling fails to stabilize the Magnus product."""


@dataclass(frozen=True, eq=False)
class UnitaryMap:
    """A 2x2 unitary with the protocol and Magnus step count that produced it.
    Maps compare and hash by identity, as an array field has no truth value."""

    matrix: np.ndarray
    protocol: DriveProtocol
    n_steps: int

    def __post_init__(self) -> None:
        defect = np.max(np.abs(_product(self.matrix.conj().T, self.matrix) - np.eye(2)))
        if not defect <= 1e-10:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")


def evolve_unitaries(
    protocol: DriveProtocol,
    tau_list_us: Sequence[float],
    n_steps: int = DEFAULT_N_STEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagators of the protocol's expansion ramp at each drive duration
    in ``tau_list_us`` (``protocol.tau_us`` itself is not used).

    Each propagator is a time-ordered product of Magnus steps (see
    :func:`cayley_klein_product`), so the global error is fourth order in
    the step width.  All durations start at ``n_steps``; each round doubles
    the step count of the durations whose product still moved by
    ``CONVERGENCE_TOLERANCE`` or more in max-norm, which for
    ``[[a, b], [-b*, a*]]`` is ``max(|da|, |db|)``, or whose finer steps
    each turn the state by pi/2 or more, and the finer product of each is
    kept.  A step turns by about pi times the drive's cycle count at the
    faster end of the ramp over the step count, and past the Magnus
    convergence radius (Moan & Niesen, Found. Comput. Math. 8 (2008) 291)
    two wrong products can agree to the tolerance.  Raises
    :class:`ConvergenceError`, naming the first duration in input order, if
    any duration is still unconverged after six doublings: where its last
    doubling met the tolerance, the error says that the step-angle guard
    refused it and names the step count the guard needs, with the cycle
    count at the faster end; otherwise it gives the cycle count at the
    final gap.  Raises ``ValueError`` if a product is off unitarity
    by more than 1e-10 (``U^dagger U - I = (|a|^2 + |b|^2 - 1) I``).
    A bad list (empty, or a duration not positive and finite) is rejected first.

    Returns the ``(n_tau, 2, 2)`` stack of propagators and the step count
    each used, in input order.
    """
    _check_step_count(n_steps)
    taus = np.asarray(tau_list_us, dtype=np.float64)
    if len(taus) == 0:
        raise ValueError("tau list must be nonempty")
    for tau in taus.tolist():
        _check_duration(tau)
    ramp = (protocol.nu_initial_khz, protocol.nu_final_khz)
    pairs = np.empty((2, len(taus)), dtype=np.complex128)
    steps = np.empty(len(taus), dtype=np.int64)
    pending = np.arange(len(taus))
    current = cayley_klein_product(*ramp, taus, n_steps)
    # more than two steps per cycle, a step angle below pi/2; never raise this bound
    fewest = 2.0 * max(ramp) * KHZ_US * taus
    n = n_steps
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        finer = cayley_klein_product(*ramp, taus[pending], n)
        met = np.abs(finer - current).max(axis=0) < CONVERGENCE_TOLERANCE
        done = met & (n > fewest[pending])
        pairs[:, pending[done]] = finer[:, done]
        steps[pending[done]] = n
        # met the tolerance, but the step-angle guard refused the product
        refused = met[~done]
        pending, current = pending[~done], finer[:, ~done]
        if len(pending) == 0:
            break
    else:
        tau = taus[pending[0]]
        if refused[0]:
            raise ConvergenceError(
                f"Magnus product refused by the step-angle guard after {_MAX_DOUBLINGS} "
                f"doublings from n_steps={n_steps}: its {n} steps met "
                f"{CONVERGENCE_TOLERANCE}, but tau_us = {tau:g} "
                f"({max(ramp) * tau * KHZ_US:g} cycles at max(nu_initial_khz, "
                f"nu_final_khz) = {max(ramp):g}) needs more than {fewest[pending[0]]:g} steps"
            )
        raise ConvergenceError(
            f"Magnus product not converged to {CONVERGENCE_TOLERANCE} after "
            f"{_MAX_DOUBLINGS} doublings from n_steps={n_steps} (tau_us = {tau:g}, "
            f"{protocol.nu_final_khz * tau * KHZ_US:g} cycles at "
            f"nu_final_khz = {protocol.nu_final_khz:g})"
        )
    defect = np.abs((pairs.real**2 + pairs.imag**2).sum(axis=0) - 1.0).max()
    if defect > 1e-10:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return _matrices(pairs), steps


def evolve_unitary(
    protocol: DriveProtocol, n_steps: int = DEFAULT_N_STEPS
) -> UnitaryMap:
    """Propagator of the drive, converged by step doubling from ``n_steps``
    (see :func:`evolve_unitaries`); the metadata records the step count
    actually used."""
    matrices, steps = evolve_unitaries(protocol, [protocol.tau_us], n_steps)
    return UnitaryMap(matrix=matrices[0], protocol=protocol, n_steps=int(steps[0]))


def _flip_probabilities(
    matrices: np.ndarray, vec_i: np.ndarray, vec_f: np.ndarray
) -> np.ndarray:
    """Probability that each propagator of an ``(n, 2, 2)`` stack flips the
    medium between the endpoint eigenstates, eigenvector columns ``vec_i``
    and ``vec_f``.  Both cross elements |<up_f|U|down_i>|^2 and
    |<down_f|U|up_i>|^2 are computed; unitarity of a 2x2 map forces them
    equal, and that symmetry is asserted (to 1e-9) for every propagator
    rather than trusted.  Their means are returned."""
    overlap = _product(_product(vec_f.conj().T, matrices), vec_i)
    up = np.abs(overlap[:, 1, 0]) ** 2
    down = np.abs(overlap[:, 0, 1]) ** 2
    asymmetric = ~(np.abs(up - down) < 1e-9)
    if asymmetric.any():
        k = np.argmax(asymmetric)
        raise RuntimeError(
            f"transition-probability symmetry violated: {up[k]} vs {down[k]}"
        )
    return np.clip(0.5 * (up + down), 0.0, 1.0)


def transition_probability(
    unitary: UnitaryMap, h_initial: np.ndarray, h_final: np.ndarray
) -> float:
    """Eigenstate flip probability of one propagator (see
    ``_flip_probabilities``)."""
    _, vec_i = eigensystem(h_initial)
    _, vec_f = eigensystem(h_final)
    return float(_flip_probabilities(unitary.matrix[None], vec_i, vec_f)[0])


def propagate_state(rho: np.ndarray, unitary: UnitaryMap) -> np.ndarray:
    """Conjugate a state by the propagator: U rho U^dagger."""
    u = unitary.matrix
    return _product(_product(u, np.asarray(rho, dtype=np.complex128)), u.conj().T)


def _matrices(pairs: np.ndarray) -> np.ndarray:
    """``(n, 2, 2)`` stack of ``[[a, b], [-b*, a*]]`` from ``(a, b)`` of shape
    ``(2, n)``."""
    a, b = pairs
    matrices = np.empty((len(a), 2, 2), dtype=np.complex128)
    matrices[:, 0, 0], matrices[:, 0, 1] = a, b
    matrices[:, 1, 0], matrices[:, 1, 1] = -b.conj(), a.conj()
    return matrices
