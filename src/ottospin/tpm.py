"""Two-point-measurement statistics for the engine strokes.

Work here is defined from projective energy measurements before and after
each drive stroke.  A full engine cycle has sixteen possible four-outcome
histories (two levels at each of the four measurements); their
(2, 2, 2, 2) table, the resulting work and heat atom distributions,
characteristic functions with discrete Fourier inversion, and the closed-form
means all live in this module.

Sign convention: every per-history energy is the contribution to the
*extracted* work (measured drop of the medium's energy during expansion plus
measured drop during compression), so distribution means are positive when
the engine delivers net output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .spin import (
    PLANCK_PEV_PER_KHZ,
    DriveProtocol,
    ThermalParams,
    polarization,
    thermal_populations,
)

#: Atoms closer than this (peV) are merged into one.
MERGE_TOLERANCE_PEV = 1e-9

_KINDS = ("work", "heat")


@dataclass(frozen=True)
class EnergyDistribution:
    """Finite atom distribution over energies (peV)."""

    energies_pev: tuple[float, ...]
    probabilities: tuple[float, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if len(self.energies_pev) != len(self.probabilities):
            raise ValueError("energies and probabilities must have equal length")
        if len(self.energies_pev) == 0:
            raise ValueError("distribution needs at least one atom")
        if not all(map(math.isfinite, (*self.energies_pev, *self.probabilities))):
            raise ValueError("atoms must be finite")
        if any(p < 0.0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        values = self.energies_pev
        if any(b - a <= MERGE_TOLERANCE_PEV for a, b in zip(values, values[1:])):
            raise ValueError("energies must be ascending with separated atoms")

    @classmethod
    def from_atoms(
        cls,
        energies_pev: Iterable[float],
        probabilities: Iterable[float],
        kind: str,
    ) -> "EnergyDistribution":
        """Normalize raw atoms: sort, merge near-coincident values, drop
        zero-probability entries.

        Merged atoms sit at the probability-weighted mean of their cluster.
        Tiny negative weights (above -1e-12, as produced by Fourier
        inversion round-off) are clipped to zero.
        """
        values, probs = _float_array(energies_pev), _float_array(probabilities)
        if values.shape != probs.shape or values.ndim != 1:
            raise ValueError("energies and probabilities must be 1d and equal length")
        order = np.argsort(values, kind="stable")
        values, probs = values[order], probs[order]
        atom_values, atom_probs = values.tolist(), probs.tolist()
        if not all(map(math.isfinite, atom_values + atom_probs)):
            raise ValueError("atoms must be finite")
        if any(p < -1e-12 for p in atom_probs):
            raise ValueError("probabilities must be nonnegative")
        probs = np.maximum(probs, 0.0)

        # a cluster runs while atoms lie within the tolerance of its first
        # atom; a one-atom cluster takes v * p / p, the same IEEE operations
        # as the one-element dot product (its weight is kept only when
        # positive, so it needs no clip), and longer clusters keep numpy's
        # sum and dot so that their rounding stays that of the library
        n_atoms = len(atom_values)
        merged_values: list[float] = []
        merged_probs: list[float] = []
        start = 0
        for i in range(1, n_atoms + 1):
            if i < n_atoms and atom_values[i] - atom_values[start] <= MERGE_TOLERANCE_PEV:
                continue
            if i - start == 1:
                weight = atom_probs[start]
                value = atom_values[start] * weight
            else:
                chunk_p = probs[start:i]
                weight = float(np.add.reduce(chunk_p))
                value = np.dot(values[start:i], chunk_p)
            if weight > 0.0:
                merged_values.append(float(value / weight))
                merged_probs.append(weight)
            start = i
        return cls(tuple(merged_values), tuple(merged_probs), kind)


@dataclass(frozen=True, eq=False)
class CharacteristicSamples:
    """Samples of a distribution's characteristic function chi(u)."""

    u_per_pev: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u_per_pev, dtype=float)
        vals = np.asarray(self.values, dtype=np.complex128)
        if u.ndim != 1 or u.shape != vals.shape:
            raise ValueError("u grid and samples must be 1d and equal length")
        object.__setattr__(self, "u_per_pev", u)
        object.__setattr__(self, "values", vals)
        if not np.isfinite(vals).all():
            raise ValueError("chi samples must be finite")
        # pair each u with the last sample whose u rounds to -u (12 decimals);
        # NaN keys pair with nothing
        keys = np.round(u, 12)
        if not (keys < 0.0).any():
            # no negative key, as on a conjugate_u_grid grid: only the zero
            # keys pair, each with the last of them, and every |u| < 1e-15
            # has a zero key
            zero = keys == 0.0
            zero_u, zero_vals = u[zero].tolist(), vals[zero].tolist()
            if any(abs(x) < 1e-15 and abs(v - 1.0) > 1e-12
                   for x, v in zip(zero_u, zero_vals)):
                raise ValueError("chi(0) must equal 1")
            if any(abs(zero_vals[-1] - v.conjugate()) > 1e-12 for v in zero_vals):
                raise ValueError("chi(-u) must equal conj(chi(u))")
            return
        if (np.abs(vals[np.abs(u) < 1e-15] - 1.0) > 1e-12).any():
            raise ValueError("chi(0) must equal 1")
        order = np.argsort(keys, kind="stable")
        pos = np.searchsorted(keys[order], -keys, side="right") - 1
        partner = order[np.maximum(pos, 0)]
        paired = (pos >= 0) & (keys[partner] == -keys)
        if (np.abs(vals[partner] - vals.conj())[paired] > 1e-12).any():
            raise ValueError("chi(-u) must equal conj(chi(u))")


def transition_matrix(transition_prob: float) -> np.ndarray:
    """Doubly stochastic level-transfer matrix of a drive stroke: the
    off-diagonal entries are the level-swap probability, the diagonal the
    stay probability."""
    stay = _stay_probability(transition_prob)
    return np.array([[stay, transition_prob], [transition_prob, stay]])


def enumerate_histories(
    cold_populations: Sequence[float],
    hot_populations: Sequence[float],
    transition_prob: float,
    spectra: tuple[Sequence[float], Sequence[float]],
) -> tuple[np.ndarray, np.ndarray]:
    """All sixteen cycle histories as ``(delta_e_pev, probability)``, two
    arrays of shape (2, 2, 2, 2) indexed ``[n, m, k, j]``.

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
    transfer_t = transition_matrix(transition_prob).T

    probability = (
        p[:, None, None, None] * transfer_t[:, :, None, None] * q[:, None] * transfer_t
    )
    expansion = e_initial[:, None] - e_final
    compression = e_final[:, None] - e_initial
    delta_e = expansion[:, :, None, None] + compression
    return delta_e, probability


def post_expansion_populations(
    cold_populations: Sequence[float], transition_prob: float
) -> tuple[float, float]:
    """Level occupations right after the expansion stroke."""
    p = _checked_populations(cold_populations, "cold")
    transfer = transition_matrix(transition_prob)
    s = transfer @ p
    return float(s[0]), float(s[1])


def heat_distribution(
    post_expansion: Sequence[float],
    hot_populations: Sequence[float],
    final_spectrum: Sequence[float],
) -> EnergyDistribution:
    """Distribution of heat absorbed from the hot reservoir.

    The heating stroke happens at the wide gap, so the only atoms are 0 and
    plus/minus that gap: the medium enters with occupations ``post_expansion``
    and leaves thermalized with occupations ``hot_populations``; level
    transfer during the stroke is unconstrained (full rethermalization), so
    the joint weight is the plain product s_m * q_k.
    """
    s = _checked_populations(post_expansion, "post-expansion")
    q = _checked_populations(hot_populations, "hot")
    e_f = _checked_spectrum(final_spectrum)
    # [m, k]: enter at level m, leave at level k
    values = e_f - e_f[:, None]
    probs = s[:, None] * q
    return EnergyDistribution.from_atoms(values.ravel(), probs.ravel(), kind="heat")


def mean(dist: EnergyDistribution) -> float:
    """First moment of an atom distribution (peV)."""
    return float(np.dot(dist.energies_pev, dist.probabilities))


def characteristic_function(
    dist: EnergyDistribution, u_grid: Sequence[float]
) -> CharacteristicSamples:
    """chi(u) = sum_atoms p * exp(i u E) sampled on ``u_grid`` (1/peV)."""
    u = np.asarray(u_grid, dtype=float)
    energies = np.asarray(dist.energies_pev)
    probs = np.asarray(dist.probabilities)
    # two real products instead of one complex one: exp(i phase) @ p
    phase = np.outer(u, energies)
    values = np.cos(phase) @ probs + 1j * (np.sin(phase) @ probs)
    return CharacteristicSamples(u, values)


def conjugate_u_grid(energy_spacing_pev: float, n_points: int) -> np.ndarray:
    """Uniform u grid (starting at 0) whose discrete inversion resolves atoms
    sitting on multiples of ``energy_spacing_pev``."""
    if not 0.0 < energy_spacing_pev < math.inf:
        raise ValueError(
            f"energy spacing must be positive and finite, got {energy_spacing_pev}"
        )
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ValueError(
            f"grid point count must be an integer, got {n_points!r}"
        ) from None
    if n_points < 2:
        raise ValueError("need at least two grid points")
    du = 2.0 * np.pi / (n_points * energy_spacing_pev)
    if not 0.0 < du < math.inf:
        raise ValueError(f"u spacing {du} of this grid is not positive and finite")
    return np.arange(n_points) * du


def invert_characteristic(
    samples: CharacteristicSamples, kind: str = "work"
) -> EnergyDistribution:
    """Recover an atom distribution from uniformly sampled chi(u).

    With N samples u_k = u_0 + k du the implied energy grid has spacing
    dE = 2 pi / (N du); weights are recovered exactly (up to round-off) for
    any distribution whose atoms sit on that grid within a window of N
    consecutive multiples centered at zero.  The weight of E_j = j dE is
    exp(-i u_0 E_j) * FFT(chi)[j mod N] / N, one O(N log N) transform.
    Recovered weights within the transform's round-off,
    16 N eps max(sum|chi| / N, 1), are discarded as inversion noise.  When
    dE is well above the merge tolerance the recovered energies are the
    lattice values j dE themselves; a finer lattice goes through
    ``EnergyDistribution.from_atoms``, which merges atoms closer than the
    tolerance.
    """
    u = samples.u_per_pev
    if len(u) < 2:
        raise ValueError("need at least two samples to invert")
    du = u[1] - u[0]
    # NaN fails both comparisons, as a decreasing or uneven grid does
    with np.errstate(invalid="ignore"):
        uniform = du > 0.0 and np.abs(u[1:] - u[:-1] - du).max() <= 1e-9 * du
    if not uniform:
        raise ValueError("u grid must be uniformly spaced and increasing")
    n = len(u)
    indices = np.arange(-(n // 2), n - n // 2)
    spacing = 2.0 * np.pi / (n * du)
    energies = indices * spacing
    # numpy.fft loads on first use, so the CLI's import does not pay for it
    spectrum = np.fft.fft(samples.values)[indices % n]
    weights = (np.exp(-1j * u[0] * energies) * spectrum).real / n
    scale = max(float(np.abs(samples.values).sum()) / n, 1.0)
    keep = np.abs(weights) > 16.0 * n * np.finfo(float).eps * scale
    if not keep.any():
        raise ValueError("inversion recovered no atoms above threshold")
    if not spacing > 2.0 * MERGE_TOLERANCE_PEV:
        return EnergyDistribution.from_atoms(energies[keep], weights[keep], kind)
    # the lattice is sorted, and rounding j dE cannot bring two atoms within
    # the merge tolerance: from_atoms' checks, clip and zero-weight drop
    # without its sort and merge
    values, probs = energies[keep].tolist(), weights[keep].tolist()
    if not all(map(math.isfinite, values + probs)):
        raise ValueError("atoms must be finite")
    if any(p < -1e-12 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    atoms = [(v, p) for v, p in zip(values, probs) if p > 0.0]
    return EnergyDistribution(
        tuple(v for v, _ in atoms), tuple(p for _, p in atoms), kind
    )


def lorentzian_broaden(
    dist: EnergyDistribution, fwhm_pev: float, grid_pev: Sequence[float]
) -> np.ndarray:
    """Sum of unit-area Lorentzians (one per atom, weighted by probability)
    sampled on ``grid_pev``; emulates a measured spectrum of sharp peaks."""
    if not 0.0 < fwhm_pev < math.inf:
        raise ValueError(f"fwhm must be positive and finite, got {fwhm_pev}")
    grid = np.asarray(grid_pev, dtype=float)
    gamma = 0.5 * fwhm_pev
    try:
        with np.errstate(over="raise"):
            gamma_sq = gamma**2
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"fwhm {fwhm_pev} is too wide: its squared half width overflows"
        ) from None
    if gamma_sq == 0.0:
        raise ValueError(
            f"fwhm {fwhm_pev} is too narrow: its squared half width underflows"
        )
    curve = np.zeros_like(grid)
    # an offset whose square overflows has density 0, its limit
    with np.errstate(over="ignore"):
        for energy, prob in zip(dist.energies_pev, dist.probabilities):
            curve += prob * (gamma / np.pi) / ((grid - energy) ** 2 + gamma_sq)
    return curve


# --- closed-form means ----------------------------------------------------

def mean_work_closed_form(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> float:
    """Mean extracted work per cycle (peV).

    In terms of the endpoint polarizations p_cold = tanh(gap_i / 2 kT_cold)
    and p_hot = tanh(gap_f / 2 kT_hot):

        (h/2)(nu_f - nu_i)(p_cold - p_hot)
            - h * transition_prob * (nu_f p_cold + nu_i p_hot)

    The transition_prob coefficient is strictly negative for positive
    temperatures, so faster (less adiabatic) driving always costs output.
    """
    h = PLANCK_PEV_PER_KHZ
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    p_cold = polarization(nu_i, thermal.kt_cold_pev)
    p_hot = polarization(nu_f, thermal.kt_hot_pev)
    return 0.5 * h * (nu_f - nu_i) * (p_cold - p_hot) - h * transition_prob * (
        nu_f * p_cold + nu_i * p_hot
    )


def mean_heat_hot_closed_form(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> float:
    """Mean heat absorbed from the hot reservoir per cycle (peV):
    (gap_f / 2) * ((1 - 2 * transition_prob) * p_cold - p_hot)."""
    h = PLANCK_PEV_PER_KHZ
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    p_cold = polarization(nu_i, thermal.kt_cold_pev)
    p_hot = polarization(nu_f, thermal.kt_hot_pev)
    return 0.5 * h * nu_f * ((1.0 - 2.0 * transition_prob) * p_cold - p_hot)


def mean_heat_cold_closed_form(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> float:
    """Mean heat absorbed from the cold reservoir per cycle (peV):
    (gap_i / 2) * ((1 - 2 * transition_prob) * p_hot - p_cold).  Negative
    while the engine runs."""
    h = PLANCK_PEV_PER_KHZ
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    p_cold = polarization(nu_i, thermal.kt_cold_pev)
    p_hot = polarization(nu_f, thermal.kt_hot_pev)
    return 0.5 * h * nu_i * ((1.0 - 2.0 * transition_prob) * p_hot - p_cold)


# --- engine-level conveniences ---------------------------------------------

def endpoint_spectra(protocol: DriveProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint energy pairs (ascending, peV) of the expansion ramp."""
    gap_i = PLANCK_PEV_PER_KHZ * protocol.nu_initial_khz
    gap_f = PLANCK_PEV_PER_KHZ * protocol.nu_final_khz
    return (
        np.array([-0.5 * gap_i, 0.5 * gap_i]),
        np.array([-0.5 * gap_f, 0.5 * gap_f]),
    )


def engine_work_distribution(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> EnergyDistribution:
    """Work distribution of the full cycle at the given level-swap
    probability.

    The sixteen histories of ``enumerate_histories``, in its [n, m, k, j]
    order and with its IEEE operations, built on Python floats.
    """
    p, q, e_initial, e_final = _engine_levels(protocol, thermal)
    stay = _stay_probability(transition_prob)
    transfer = ((stay, transition_prob), (transition_prob, stay))
    energies, probs = [], []
    for p_n, e_n, row_n in zip(p, e_initial, transfer):
        for e_m, t_nm in zip(e_final, row_n):
            for q_k, e_k, row_k in zip(q, e_final, transfer):
                for e_j, t_kj in zip(e_initial, row_k):
                    energies.append((e_n - e_m) + (e_k - e_j))
                    probs.append(p_n * t_nm * q_k * t_kj)
    return EnergyDistribution.from_atoms(energies, probs, kind="work")


def engine_heat_distribution(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> EnergyDistribution:
    """Hot-reservoir heat distribution of the full cycle: the atoms of
    ``heat_distribution`` after ``post_expansion_populations``, on Python
    floats."""
    p, q, _, e_final = _engine_levels(protocol, thermal)
    # numpy's 2x2 matmul, whose rounding a*b + c*d does not always share
    s = (transition_matrix(transition_prob) @ p).tolist()
    _checked_pair(s, "post-expansion")
    energies = [e_k - e_m for e_m in e_final for e_k in e_final]
    probs = [s_m * q_k for s_m in s for q_k in q]
    return EnergyDistribution.from_atoms(energies, probs, kind="heat")


# --- shared validation ------------------------------------------------------

def _checked_populations(populations: Sequence[float], label: str) -> np.ndarray:
    pops = np.asarray(populations, dtype=float)
    if pops.shape != (2,):
        raise ValueError(f"{label} populations must be a pair, got shape {pops.shape}")
    _checked_pair(pops.tolist(), label)
    return pops


def _checked_pair(pops: list[float], label: str) -> None:
    """Check a population pair of Python floats as ``_checked_populations``
    checks an array."""
    first, second = pops
    if first < 0.0 or second < 0.0:
        raise ValueError(
            f"{label} populations must be nonnegative, got {np.array(pops)}"
        )
    if abs(first + second - 1.0) > 1e-9:
        raise ValueError(f"{label} populations must sum to 1, got {first + second}")


def _engine_levels(protocol: DriveProtocol, thermal: ThermalParams):
    """Cold and hot populations and the endpoint energy pairs of an engine,
    as checked Python floats: ``(p, q, e_initial, e_final)``."""
    p = list(thermal_populations(protocol.nu_initial_khz, thermal.kt_cold_pev))
    q = list(thermal_populations(protocol.nu_final_khz, thermal.kt_hot_pev))
    _checked_pair(p, "cold")
    _checked_pair(q, "hot")
    spectra = [energies.tolist() for energies in endpoint_spectra(protocol)]
    for low, high in spectra:
        if high <= low:
            raise ValueError(
                f"spectrum must be ascending, got {np.array([low, high])}"
            )
    return p, q, *spectra


def _stay_probability(transition_prob: float) -> float:
    """1 - transition_prob, for a transition probability in [0, 1]."""
    if not 0.0 <= transition_prob <= 1.0:
        raise ValueError(
            f"transition probability must lie in [0, 1], got {transition_prob}"
        )
    return 1.0 - transition_prob


def _float_array(items: Iterable[float]) -> np.ndarray:
    """``items`` as a float array; an ndarray is taken as it is, any other
    iterable (generators included) is listed first."""
    return np.asarray(items if isinstance(items, np.ndarray) else list(items), dtype=float)


def _checked_spectrum(spectrum: Sequence[float]) -> np.ndarray:
    energies = np.asarray(spectrum, dtype=float)
    if energies.shape != (2,):
        raise ValueError(f"spectrum must be an energy pair, got shape {energies.shape}")
    if energies[1] <= energies[0]:
        raise ValueError(f"spectrum must be ascending, got {energies}")
    return energies
