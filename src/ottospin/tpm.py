"""Two-point-measurement statistics for the engine strokes.

Work here is defined from projective energy measurements before and after
each drive stroke.  A full engine cycle has sixteen possible four-outcome
histories (two levels at each of the four measurements); the work and heat
atom distributions they give, characteristic functions with discrete
Fourier inversion, and the closed-form means all live in this module.

Sign convention: every per-history energy is the contribution to the
*extracted* work (measured drop of the medium's energy during expansion plus
measured drop during compression), so distribution means are positive when
the engine delivers net output.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .spin import (
    PLANCK_PEV_PER_KHZ,
    DriveProtocol,
    ThermalParams,
    _check_transition_probability,
    _endpoint_polarizations,
    thermal_populations,
)

#: Atoms closer than this (peV) are merged into one.
MERGE_TOLERANCE_PEV = 1e-9


@dataclass(frozen=True)
class EnergyDistribution:
    """Finite atom distribution over energies (peV)."""

    energies_pev: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        values, probs = self.energies_pev, self.probabilities
        if len(values) != len(probs):
            raise ValueError("energies and probabilities must have equal length")
        if len(values) == 0:
            raise ValueError("distribution needs at least one atom")
        if not (all(map(math.isfinite, values)) and all(map(math.isfinite, probs))):
            raise ValueError("atoms must be finite")
        # past the finiteness check, min and the gaps see no NaN
        if min(probs) < 0.0:
            raise ValueError("probabilities must be nonnegative")
        total = sum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if min(map(operator.sub, values[1:], values), default=math.inf) <= MERGE_TOLERANCE_PEV:
            raise ValueError("energies must be ascending with separated atoms")

    @classmethod
    def from_atoms(
        cls,
        energies_pev: Iterable[float],
        probabilities: Iterable[float],
    ) -> "EnergyDistribution":
        """Normalize raw atoms: sort, merge near-coincident values, drop
        zero-probability entries.

        A cluster of atoms, each within the merge tolerance of the previous
        one, merges at its probability-weighted mean.  Tiny negative weights
        (above -1e-12, as produced by Fourier inversion round-off) are
        clipped to zero.
        """
        values, probs = _float_array(energies_pev), _float_array(probabilities)
        if values.shape != probs.shape or values.ndim != 1:
            raise ValueError("energies and probabilities must be 1d and equal length")
        atoms = _sorted_atoms(values)
        return cls(*_merge(atoms, np.take(probs, atoms.order).tolist()))


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
        plan = _grid_plan(u.tobytes())
        picked = vals[plan.pairs].tolist()
        n_zero = plan.n_zero
        if _apart([v - 1.0 for v in picked[:n_zero]]):
            raise ValueError("chi(0) must equal 1")
        own, partner = picked[n_zero::2], picked[n_zero + 1::2]
        if _apart([w - v.conjugate() for v, w in zip(own, partner)]):
            raise ValueError("chi(-u) must equal conj(chi(u))")


def characteristic_function(
    dist: EnergyDistribution, u_grid: Sequence[float]
) -> CharacteristicSamples:
    """chi(u) = sum_atoms p * exp(i u E) sampled on ``u_grid`` (1/peV)."""
    u = np.asarray(u_grid, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("u grid must be finite")
    energies = np.array(dist.energies_pev, dtype=float)
    cos_t, sin_t = _phase_table(u.tobytes(), energies.tobytes())
    probs = np.asarray(dist.probabilities)  # two real products: exp(i phase) @ p
    return CharacteristicSamples(u, cos_t @ probs + 1j * (sin_t @ probs))


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


def invert_characteristic(samples: CharacteristicSamples) -> EnergyDistribution:
    """Recover an atom distribution from uniformly sampled chi(u).

    With N samples u_k = u_0 + k du the implied energy grid has spacing
    dE = 2 pi / (N du); weights are recovered exactly (up to round-off) for
    any distribution whose atoms sit on that grid within a window of N
    consecutive multiples centered at zero.  The weight of E_j = j dE is
    exp(-i u_0 E_j) * FFT(chi)[j mod N] / N, one O(N log N) transform; the
    lattice and its phase factors depend on the u grid alone and are kept
    for the next call on a grid with the same bytes.  Recovered weights
    within the transform's round-off, 16 N eps max(sum|chi| / N, 1), are
    discarded as inversion noise.  When dE is well above the merge
    tolerance the recovered energies are the lattice values j dE
    themselves; a finer lattice goes through
    ``EnergyDistribution.from_atoms``, which merges atoms closer than the
    tolerance.
    """
    n, fold, spacing, energies, phase, noise_floor = _grid_plan(
        samples.u_per_pev.tobytes()).lattice
    # numpy.fft loads on first use, so the CLI's import does not pay for it
    spectrum = np.fft.fft(samples.values)[fold]
    weights = (phase * spectrum).real / n
    scale = max(float(np.abs(samples.values).sum()) / n, 1.0)
    keep = np.abs(weights) > noise_floor * scale
    atoms, kept = energies[keep], weights[keep]
    if not len(atoms):
        raise ValueError("inversion recovered no atoms above threshold")
    if not spacing > 2.0 * MERGE_TOLERANCE_PEV:
        return EnergyDistribution.from_atoms(atoms, kept)
    # the lattice is sorted, and rounding j dE cannot bring two atoms within
    # the merge tolerance: each atom is a cluster of its own, kept where its
    # clipped weight is positive
    values = atoms.tolist()
    clipped = _clipped(all(map(math.isfinite, values)), kept.tolist())
    if 0.0 in clipped:
        positive = [c > 0.0 for c in clipped]
        values, clipped = compress(values, positive), compress(clipped, positive)
    return EnergyDistribution(tuple(values), tuple(clipped))


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
    _check_transition_probability(transition_prob)
    h = PLANCK_PEV_PER_KHZ
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    p_cold, p_hot = _endpoint_polarizations(protocol, thermal)
    return 0.5 * h * (nu_f - nu_i) * (p_cold - p_hot) - h * transition_prob * (
        nu_f * p_cold + nu_i * p_hot
    )


def mean_heat_hot_closed_form(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> float:
    """Mean heat absorbed from the hot reservoir per cycle (peV):
    (gap_f / 2) * ((1 - 2 * transition_prob) * p_cold - p_hot)."""
    _check_transition_probability(transition_prob)
    h = PLANCK_PEV_PER_KHZ
    p_cold, p_hot = _endpoint_polarizations(protocol, thermal)
    return 0.5 * h * protocol.nu_final_khz * ((1.0 - 2.0 * transition_prob) * p_cold - p_hot)


def mean_heat_cold_closed_form(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> float:
    """Mean heat absorbed from the cold reservoir per cycle (peV):
    (gap_i / 2) * ((1 - 2 * transition_prob) * p_hot - p_cold).  Negative
    while the engine runs."""
    _check_transition_probability(transition_prob)
    h = PLANCK_PEV_PER_KHZ
    p_cold, p_hot = _endpoint_polarizations(protocol, thermal)
    return 0.5 * h * protocol.nu_initial_khz * ((1.0 - 2.0 * transition_prob) * p_hot - p_cold)


# --- engine-level conveniences ---------------------------------------------

def endpoint_spectra(protocol: DriveProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint energy pairs (ascending, peV) of the expansion ramp."""
    return _endpoint_spectra(protocol.nu_initial_khz, protocol.nu_final_khz)


def engine_work_distribution(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> EnergyDistribution:
    """Work distribution of the full cycle at the level-swap probability xi.

    A history [n, m, k, j] finds level n before and m after the expansion
    stroke, k before and j after the compression stroke (0 = ground,
    1 = excited).  It extracts (e_i[n] - e_f[m]) + (e_f[k] - e_i[j]) for the
    endpoint spectra e_i, e_f of ``endpoint_spectra`` and has the weight
    p[n] T[m, n] q[k] T[j, k] (Talkner, Lutz & Hänggi, Phys. Rev. E 75,
    050102 (2007)): p and q are the cold and hot Gibbs populations and T is
    the level-transfer matrix of xi, which both strokes share because the
    compression propagator is the adjoint of the expansion one.  The weights
    are multiplied left to right on Python floats; everything else comes
    from the engine's plan (see ``_engine_plan``).
    """
    plan = _engine_plan(protocol.nu_initial_khz, protocol.nu_final_khz,
                        thermal.kt_cold_pev, thermal.kt_hot_pev)
    stay = _stay_probability(transition_prob)
    transfer = (stay, transition_prob, transition_prob, stay)  # T[a][b] at 2a + b
    # p_n T[n][m] q_k T[k][j], multiplied left to right: p_n T[n][m] q_k at
    # 4n + 2m + k, and history 8n + 4m + 2k + j taken in the atoms' sort order
    ptq = [p_n * t_nm * q_k for p_n, row in zip(plan.p, (transfer[:2], transfer[2:]))
           for t_nm in row for q_k in plan.q]
    probs = [ptq[h >> 1] * transfer[h & 3] for h in plan.work.order]
    return EnergyDistribution(*_merge(plan.work, probs))


def engine_heat_distribution(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> EnergyDistribution:
    """Hot-reservoir heat distribution of the full cycle at the level-swap
    probability xi.

    The medium meets the hot bath on level m of the wide gap, with the
    post-expansion populations s = T p, and leaves it rethermalized on level
    k: the heat e_f[k] - e_f[m] has the weight s[m] q[k], the weights of
    ``engine_work_distribution`` summed over n and j, both on Python floats.
    Everything but the weights comes from the engine's plan."""
    plan = _engine_plan(protocol.nu_initial_khz, protocol.nu_final_khz,
                        thermal.kt_cold_pev, thermal.kt_hot_pev)
    stay, (p_0, p_1) = _stay_probability(transition_prob), plan.p
    s = (stay * p_0 + transition_prob * p_1, transition_prob * p_0 + stay * p_1)
    # s_m q_k of heat 2m + k, taken in the atoms' sort order
    probs = [s[i >> 1] * plan.q[i & 1] for i in plan.heat.order]
    return EnergyDistribution(*_merge(plan.heat, probs))


# --- plans: what does not change between calls -----------------------------

class _SortedAtoms(NamedTuple):
    """``from_atoms``' stable sort order of the atom energies and its merge
    clusters: a cluster runs while each atom lies within the merge tolerance
    of the previous atom."""

    order: tuple[int, ...]
    finite: bool
    # (start, stop) in sorted order, first and last energy, first - v per atom
    # v, or () when every such offset is zero
    clusters: tuple[tuple[int, int, float, float, tuple[float, ...]], ...]


def _sorted_atoms(energies: np.ndarray) -> _SortedAtoms:
    order = np.argsort(energies, kind="stable")
    values = energies[order].tolist()
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i < len(values) and values[i] - values[i - 1] <= MERGE_TOLERANCE_PEV:
            continue
        offsets = tuple(values[start] - v for v in values[start:i])
        offsets = offsets if any(offsets) else ()
        clusters.append((start, i, values[start], values[i - 1], offsets))
        start = i
    return _SortedAtoms(tuple(order.tolist()), all(map(math.isfinite, values)),
                        tuple(clusters))


def _merge(atoms: _SortedAtoms, probs: list[float]) -> tuple[tuple, tuple]:
    """``from_atoms``' checks, clip, merge and zero-weight drop for weights
    given in the atoms' sort order: the merged (energies, probabilities).

    A cluster weighs fsum(c) of its clipped weights c and sits at first -
    fsum((first - v) r) / fsum(r), r = c / max(c), clamped to its last atom:
    no product underflows, equal atoms keep their bits, and merged atoms stay
    more than the tolerance apart."""
    clipped = _clipped(atoms.finite, probs)
    merged_values, merged_probs = [], []
    for start, stop, first, last, offsets in atoms.clusters:
        if stop - start == 1:  # fsum of one weight is that weight; first is last
            weight = clipped[start]
        else:
            chunk = clipped[start:stop]
            weight = math.fsum(chunk)
            if weight > 0.0 and offsets:  # else first - 0 / fsum(r) is first <= last
                peak = max(chunk)
                ratios = [c / peak for c in chunk]
                offset = math.fsum(map(operator.mul, offsets, ratios)) / math.fsum(ratios)
                first = min(first - offset, last)
        if weight > 0.0:
            merged_values.append(first)
            merged_probs.append(weight)
    return tuple(merged_values), tuple(merged_probs)


def _clipped(finite: bool, probs: list[float]) -> list[float]:
    """``from_atoms``' checks of raw weights, given whether their atoms'
    energies are all finite, and the weights with those above -1e-12 but
    not positive clipped to zero."""
    if not (finite and all(map(math.isfinite, probs))):
        raise ValueError("atoms must be finite")
    low = min(probs, default=0.0)  # past the finiteness check, no NaN
    if low < -1e-12:
        raise ValueError("probabilities must be nonnegative")
    return probs if low > 0.0 else [p if p > 0.0 else 0.0 for p in probs]


class _EnginePlan(NamedTuple):
    """The part of an engine's work and heat distributions that does not
    depend on the drive duration: its checked cold and hot populations and
    the sorted history and heat energies."""

    p: tuple[float, float]
    q: tuple[float, float]
    work: _SortedAtoms  # the 16 history energies, [n, m, k, j] before sorting
    heat: _SortedAtoms  # the 4 heat energies, [m, k] before sorting


# pays on tau_scan: 1210 hits / 10 misses over seed 1's 27 s request list,
# and on mc_cycle: 98 hits / 2 misses, as a sweep asks for one engine's plan
# at each of its durations.  An entry holds about 2.9 kB (two atom sets of 16 and 4 energies), up to ~4 kB when clusters
# merge distinct energies, so the 32 entries keep at most about 130 kB
@functools.lru_cache(maxsize=32)
def _engine_plan(
    nu_initial_khz: float, nu_final_khz: float, kt_cold_pev: float, kt_hot_pev: float
) -> _EnginePlan:
    # each pair is (1 - e, e) with e in [0, 1/2], and each spectrum ascends
    # for nu > 0; a gap that overflows gives +-inf energies, which _merge rejects
    p = thermal_populations(nu_initial_khz, kt_cold_pev)
    q = thermal_populations(nu_final_khz, kt_hot_pev)
    e_initial, e_final = (energies.tolist()
                          for energies in _endpoint_spectra(nu_initial_khz, nu_final_khz))
    work = [(e_n - e_m) + (e_k - e_j)
            for e_n in e_initial for e_m in e_final for e_k in e_final for e_j in e_initial]
    heat = [e_k - e_m for e_m in e_final for e_k in e_final]
    return _EnginePlan(p, q, _sorted_atoms(np.array(work)), _sorted_atoms(np.array(heat)))


# pays on tau_scan: 600 hits / 10 misses over seed 1's 27 s request list.
# cos and sin of the phases u E, whose energies keep their bits over an
# engine's durations; keyed on bytes, as -0.0 == 0.0 would share an entry.  A
# phase that overflows leaves chi non-finite: CharacteristicSamples rejects
# it.  Past its key, an entry holds 16 bytes per (u, atom) pair, less than
# one call's phase, cos and sin
@functools.lru_cache(maxsize=2)
def _phase_table(u_bytes: bytes, energy_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.outer(np.frombuffer(u_bytes), np.frombuffer(energy_bytes))
        tables = np.cos(phase), np.sin(phase)
    for table in tables:
        table.flags.writeable = False
    return tables


class _Lattice(NamedTuple):
    """The energy lattice of a uniform u grid of n points: j mod n for each
    lattice index j, the spacing dE, the energies j dE, the phase factors
    exp(-i u_0 j dE) and the round-off scale 16 n eps."""

    n: int
    fold: np.ndarray
    spacing: float
    energies: np.ndarray
    phase: np.ndarray
    noise_floor: float


class _GridPlan:
    """What a u grid fixes: ``pairs``, the read-only indices of the n_zero
    samples at |u| < 1e-15 that ``CharacteristicSamples`` compares with 1,
    then of each u paired with the last sample whose u rounds to -u (12
    decimals) and of that partner, in turn (NaN pairs with nothing); and the
    inversion's ``lattice``.  Any grid has pairs.  Only the inversion reads
    the lattice, and it is built then, after the checks that only the
    inversion makes, so a grid that fails them never has its phase factors
    computed; a lattice once built is kept, and a failed one fails again."""

    def __init__(self, u: np.ndarray) -> None:
        keys = np.round(u, 12)
        order = np.argsort(keys, kind="stable")
        pos = np.searchsorted(keys[order], -keys, side="right") - 1
        partner = order[np.maximum(pos, 0)]
        own = np.flatnonzero((pos >= 0) & (keys[partner] == -keys))
        zero = np.flatnonzero(np.abs(u) < 1e-15)
        self.u = u
        self.pairs = np.concatenate([zero, np.stack([own, partner[own]], axis=1).ravel()])
        self.pairs.flags.writeable = False
        self.n_zero = len(zero)

    @functools.cached_property
    def lattice(self) -> _Lattice:
        u = self.u
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
        fold, phase = indices % n, np.exp(-1j * u[0] * energies)
        for array in (fold, energies, phase):
            array.flags.writeable = False
        return _Lattice(n, fold, spacing, energies, phase, 16.0 * n * np.finfo(float).eps)


# pays on tau_scan: 1210 hits / 10 misses over seed 1's 27 s request list,
# each chi checked and then inverted on its engine's grid.  Keyed on the
# grid's bytes, so a grid changed in place gets a new plan.  Every grid the
# package and perfbench build comes from conjugate_u_grid, which starts at
# u = 0 and has no negative u, so its pairs are u = 0 with itself.  An entry
# holds at most 64 bytes per grid point (key, pairs, and once inverted fold,
# energies and phase), so the two entries keep at most 128 bytes per point
# of the larger recent grid
@functools.lru_cache(maxsize=2)
def _grid_plan(u_bytes: bytes) -> _GridPlan:
    return _GridPlan(np.frombuffer(u_bytes))


def _apart(differences: list[complex]) -> bool:
    """Whether some |d| > 1e-12, rounded as numpy's complex abs rounds it;
    Python's abs raises OverflowError only where numpy's gives inf."""
    try:
        return any(abs(d) > 1e-12 for d in differences)
    except OverflowError:
        return True


# --- shared validation ------------------------------------------------------

def _stay_probability(transition_prob: float) -> float:
    """1 - transition_prob, for a transition probability in [0, 1]."""
    _check_transition_probability(transition_prob)
    return 1.0 - transition_prob


def _endpoint_spectra(
    nu_initial_khz: float, nu_final_khz: float
) -> tuple[np.ndarray, np.ndarray]:
    gaps = (PLANCK_PEV_PER_KHZ * nu_initial_khz, PLANCK_PEV_PER_KHZ * nu_final_khz)
    return tuple(np.array([-0.5 * gap, 0.5 * gap]) for gap in gaps)


def _float_array(items: Iterable[float]) -> np.ndarray:
    """``items`` as a float array; an ndarray is taken as it is, any other
    iterable (generators included) is listed first."""
    return np.asarray(items if isinstance(items, np.ndarray) else list(items), dtype=float)
