"""Process-matrix diagnostics for the drive maps.

A qubit channel E is represented by a 4x4 matrix Y over the fixed operator
basis (i*I, sigma_x, sigma_y, sigma_z) through

    E(rho) = sum_{k,j} Y[k, j] B_k rho B_j^dagger

The basis is orthogonal with tr[B_k^dagger B_l] = 2 delta_kl, and the i on
the identity makes every unitary channel's matrix real, which is the property
the unitality diagnostics lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagator import UnitaryMap
from .spin import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, _product

#: Operator basis (i*I, sigma_x, sigma_y, sigma_z), stacked.
BASIS = np.stack([1j * IDENTITY, PAULI_X, PAULI_Y, PAULI_Z])
BASIS.setflags(write=False)

_BASIS_DAG = np.conj(np.swapaxes(BASIS, 1, 2))
_BASIS_DAG.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Channel matrix in the fixed basis; validated on construction.

    Requirements: Hermitian (1e-10), positive semidefinite (eigenvalues above
    -1e-10, complete positivity), and trace preserving
    (sum_{k,j} Y[k,j] B_j^dagger B_k = I to 1e-10).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"process matrix must be 4x4, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        if not np.max(np.abs(m - m.conj().T)) <= 1e-10:
            raise ValueError("process matrix must be Hermitian")
        if _eigenvalues(m)[0] < -1e-10:
            raise ValueError("process matrix must be positive semidefinite")
        closure = np.einsum("kj,jab,kbc->ac", m, _BASIS_DAG, BASIS)
        if np.max(np.abs(closure - np.eye(2))) > 1e-10:
            raise ValueError("process matrix is not trace preserving")


def choi_from_unitary(unitary: UnitaryMap | np.ndarray) -> ProcessMatrix:
    """Rank-one process matrix of a unitary conjugation map.

    Expanding U = sum_k a_k B_k over the basis gives Y = outer(a, conj(a));
    for any unitary (global phase dropped by construction) the result is a
    real matrix.
    """
    u = unitary.matrix if isinstance(unitary, UnitaryMap) else np.asarray(unitary)
    u = u.astype(np.complex128)
    if u.shape != (2, 2) or not np.max(np.abs(_product(u.conj().T, u) - np.eye(2))) <= 1e-10:
        raise ValueError("input must be a 2x2 unitary")
    coeffs = np.einsum("kab,ba->k", _BASIS_DAG, u) / 2.0
    return ProcessMatrix(np.outer(coeffs, coeffs.conj()))


def apply_process(process: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Act with the channel on a state."""
    rho = np.asarray(rho, dtype=np.complex128)
    return np.einsum("kj,kab,bc,jdc->ad", process.matrix, BASIS, rho, np.conj(BASIS))


def identity_process() -> ProcessMatrix:
    """The do-nothing channel (single nonzero entry at the identity slot)."""
    matrix = np.zeros((4, 4), dtype=np.complex128)
    matrix[0, 0] = 1.0
    return ProcessMatrix(matrix)


def depolarizing_process() -> ProcessMatrix:
    """The fully depolarizing channel: every input goes to the maximally
    mixed state (uniform mixture of the four basis conjugations)."""
    return ProcessMatrix(np.eye(4, dtype=np.complex128) / 4.0)


def mix_processes(a: ProcessMatrix, b: ProcessMatrix, weight: float) -> ProcessMatrix:
    """Convex mixture (1 - weight) * a + weight * b."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {weight}")
    return ProcessMatrix((1.0 - weight) * a.matrix + weight * b.matrix)


def unitality_defect(process: ProcessMatrix) -> float:
    """Max-norm of E(I) - I; zero exactly for unital channels (every unitary
    conjugation, and any mixture of them)."""
    image = apply_process(process, np.eye(2, dtype=np.complex128))
    return float(np.max(np.abs(image - np.eye(2))))


def process_trace_distance(a: ProcessMatrix, b: ProcessMatrix) -> float:
    """Half the trace norm of the difference of two process matrices."""
    return float(0.5 * sum(map(abs, _eigenvalues(a.matrix - b.matrix))))


#: Squared rounding unit: the off-diagonal mass below which the Jacobi sweeps
#: stop, relative to that of the diagonal.
_EPS2 = (2.0 ** -53) ** 2

#: Jacobi sweeps after which a 4x4 matrix is diagonal to rounding; four or
#: five are needed, since each sweep squares the off-diagonal mass.
_MAX_SWEEPS = 30

#: The (p, q) pairs of one cyclic sweep, and for each the two other indices.
_PAIRS = tuple((p, q) for q in range(4) for p in range(q))
_OTHERS = tuple(tuple(r for r in range(4) if r not in pair) for pair in _PAIRS)


def _eigenvalues(matrix: np.ndarray) -> list[float]:
    """Eigenvalues (ascending) of a 4x4 Hermitian matrix by cyclic Jacobi
    rotations on Python complex numbers.

    Like ``eigvalsh``, it reads the real diagonal and the lower triangle.
    These are first scaled by a power of two, exact in both directions, so
    that the largest component is of order one and no square overflows or
    underflows.  The rotation of a pair (p, q) turns the phase of column q
    so that the (p, q) entry h is real, then zeroes it; neither step moves
    the spectrum.  The sweeps stop as soon as the off-diagonal mass is below
    rounding, so a diagonal or zero matrix costs one pass.
    """
    a = matrix.tolist()
    diagonal = [a[i][i].real for i in range(4)]
    lower = [a[q][p] for p, q in _PAIRS]
    parts = diagonal + [x for z in lower for x in (z.real, z.imag)]
    exponent = math.frexp(max(map(abs, parts)))[1]
    diagonal = [math.ldexp(x, -exponent) for x in diagonal]
    for (p, q), z in zip(_PAIRS, lower):
        a[q][p] = z = complex(math.ldexp(z.real, -exponent), math.ldexp(z.imag, -exponent))
        a[p][q] = z.conjugate()
    for _ in range(_MAX_SWEEPS):
        off = sum(a[q][p].real ** 2 + a[q][p].imag ** 2 for p, q in _PAIRS)
        if off <= _EPS2 * sum(x * x for x in diagonal):
            break
        for (p, q), others in zip(_PAIRS, _OTHERS):
            g = a[p][q]
            h = abs(g)
            if h == 0.0:
                continue
            # tan of the angle that zeroes h, the smaller root of
            # t^2 + 2 theta t - 1 = 0; a theta past the float range gives 0
            theta = (diagonal[q] - diagonal[p]) / (2.0 * h)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            phase = g.conjugate() / h
            diagonal[p] -= t * h
            diagonal[q] += t * h
            a[p][q] = a[q][p] = 0j
            for r in others:
                row = a[r]
                x, y = row[p], row[q] * phase
                row[p], row[q] = x, y = c * x - s * y, s * x + c * y
                a[p][r], a[q][r] = x.conjugate(), y.conjugate()
    # an eigenvalue of the scaled matrix is below ||M||_F <= 4 sqrt(2), so the
    # ldexp stays in range and only the product by 8 may overflow, to inf
    return sorted(math.ldexp(x, exponent - 3) * 8.0 for x in diagonal)
