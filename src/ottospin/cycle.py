"""Full four-stroke cycle composition and its figures of merit.

The cycle alternates two drive strokes (gap expansion, gap compression) with
two ideal thermal-contact strokes (full rethermalization with the hot and
cold reservoirs).  Everything here reduces to four states: the two reservoir
equilibria and the two drive outputs; all reported quantities are functions
of those states, which is also what makes the Monte Carlo error propagation a
straight resampling of them.

What an engine fixes at every drive duration (endpoint eigenvectors, Gibbs
states, their Bloch vectors) is built once per engine and kept.  What the
Monte Carlo resamples at a tau list (the point reports, their figures and the
four states' Bloch vectors) does not depend on the seed, the noise width or
the sample count, and is kept per engine and tau list for the next Monte
Carlo call; ``sweep_tau`` and ``run_cycle`` keep nothing of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import propagator
from .propagator import (
    DEFAULT_N_STEPS,
    _check_step_count,
    evolve_unitaries,
    # not called here: perfbench/tracing.py wraps these one-tau layer
    # boundaries under ottospin.cycle
    evolve_unitary,  # noqa: F401
    propagate_state,  # noqa: F401
    transition_probability,  # noqa: F401
)
from .spin import (
    IDENTITY,
    US_PER_MS,
    DriveProtocol,
    ThermalParams,
    _bloch,
    _check_transition_probability,
    _endpoint_polarizations,
    _gap_over_kt,
    _product,
    drive_hamiltonian,
    gibbs_state,
    polarization,
)


@dataclass(frozen=True)
class CycleConfig:
    """One engine configuration: drive ramp, reservoirs, and the time per
    cycle spent with both baths together (a cycle lasts 2 tau + that)."""

    protocol: DriveProtocol
    thermal: ThermalParams
    n_steps: int = DEFAULT_N_STEPS
    t_thermalization_us: float = 7000.0

    def __post_init__(self) -> None:
        _check_step_count(self.n_steps)
        if not self.t_thermalization_us > 0.0:
            raise ValueError("thermalization time must be positive")
        if self.t_thermalization_us == math.inf:  # every power would be a false 0
            raise ValueError("thermalization time must be finite")


@dataclass(frozen=True)
class CycleReport:
    """All per-cycle figures of merit for one configuration.

    ``efficiency`` and ``efficiency_lag`` are NaN when no heat is exchanged
    with the hot reservoir (the ratio is undefined there).
    """

    tau_us: float
    transition_prob: float
    mean_work_pev: float
    mean_heat_hot_pev: float
    mean_heat_cold_pev: float
    efficiency: float
    efficiency_otto: float
    efficiency_carnot: float
    efficiency_lag: float
    entropy_production: float
    power_pev_per_ms: float
    extraction_ok: bool


class UncertaintyEstimate(NamedTuple):
    mean: float
    stddev: float


def endpoint_hamiltonians(protocol: DriveProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonians at the two ends of the expansion ramp (narrow, wide)."""
    return drive_hamiltonian(0.0, protocol), drive_hamiltonian(protocol.tau_us, protocol)


def entropy_production_drive(
    mean_heat_cold_pev: float,
    mean_heat_hot_pev: float,
    thermal: ThermalParams,
) -> float:
    """Total entropy produced by the two drive strokes (nats):
    -<Q_cold>/kT_cold - <Q_hot>/kT_hot.

    Equals beta_cold * <Q_hot> * lag (the relative-entropy sum) whenever the
    four cycle states are unitarily consistent; the two computation routes
    are kept separate precisely so that identity stays a checkable fact.
    """
    return (
        -mean_heat_cold_pev / thermal.kt_cold_pev
        - mean_heat_hot_pev / thermal.kt_hot_pev
    )


def efficiency_closed_form(
    protocol: DriveProtocol, thermal: ThermalParams, transition_prob: float
) -> float:
    """Engine efficiency as a function of the transition probability alone.

    With f = p_hot/(p_hot - p_cold) and g = p_cold/(p_hot - p_cold) built
    from the endpoint polarizations:

        1 - (nu_i/nu_f) * (1 - 2*transition_prob*f) / (1 + 2*transition_prob*g)

    which reduces to the ideal-ramp value 1 - nu_i/nu_f at zero transition
    probability and equals mean work over mean hot heat everywhere.
    """
    _check_transition_probability(transition_prob)
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    p_cold, p_hot = _endpoint_polarizations(protocol, thermal)
    if math.isclose(p_cold, p_hot, rel_tol=1e-15):
        raise ValueError("efficiency undefined for equal cold and hot polarizations")
    f = p_hot / (p_hot - p_cold)
    g = p_cold / (p_hot - p_cold)
    return 1.0 - (nu_i / nu_f) * (1.0 - 2.0 * transition_prob * f) / (
        1.0 + 2.0 * transition_prob * g
    )


def run_cycle(cfg: CycleConfig) -> CycleReport:
    """Simulate one full cycle and report every figure of merit."""
    return sweep_tau(cfg, [cfg.protocol.tau_us])[0]


def sweep_tau(cfg: CycleConfig, tau_list_us: Sequence[float]) -> list[CycleReport]:
    """Run the cycle across drive durations; order-preserving."""
    return _sweep_points(cfg, tau_list_us)[0]


#: CycleReport fields whose spread Monte Carlo resampling estimates.
MONTE_CARLO_FIELDS = (
    "mean_work_pev",
    "mean_heat_hot_pev",
    "mean_heat_cold_pev",
    "efficiency",
    "efficiency_lag",
    "entropy_production",
    "power_pev_per_ms",
)


def cycle_with_uncertainty(
    cfg: CycleConfig,
    rel_noise: float = 0.01,
    n_samples: int = 1000,
    seed: int = 0,
) -> tuple[CycleReport, dict[str, UncertaintyEstimate]]:
    """Point report plus Monte Carlo spread at the configured drive duration
    (see :func:`sweep_with_uncertainty`)."""
    return sweep_with_uncertainty(
        cfg, [cfg.protocol.tau_us], rel_noise, n_samples, seed
    )[0]


def sweep_with_uncertainty(
    cfg: CycleConfig,
    tau_list_us: Sequence[float],
    rel_noise: float = 0.01,
    n_samples: int = 1000,
    seed: int = 0,
) -> list[tuple[CycleReport, dict[str, UncertaintyEstimate]]]:
    """Point report plus Monte Carlo spread for each drive duration, in order.

    Only the two drive outputs among the four cycle states depend on tau.
    The expansion propagators U of all durations come from one lockstep
    Magnus call and their swap probabilities from one batched overlap with
    the endpoint eigenvectors (see :func:`~ottospin.propagator.evolve_unitaries`).
    The compression stroke maps the hot equilibrium to U^dagger rho_hot U
    (see :mod:`ottospin.propagator`).  Every state is
    carried as its real Bloch vector r, rho = (I + r . sigma)/2, and the
    point reports of all durations come from one batched pass over them;
    their lag's relative-entropy sum is a closed form (see
    ``_drive_relative_entropy``), and the samples' relative entropies are
    one closed form of two unit-trace Bloch vectors (see
    ``_relative_entropy_batch``), which takes no eigenvalue's logarithm.
    Every stack of Bloch vectors is component-major, ``(3, n)``, so the
    Monte Carlo math is elementwise on contiguous rows of n samples.

    Each state is resampled ``n_samples`` times with additive complex
    Gaussian noise N = re + i im of width ``rel_noise`` per matrix element,
    repaired to a valid state (see ``_repair_batch``), and the report
    quantities are recomputed.  Despite its name, the width is absolute,
    not relative to the state: where a bath's polarization is far below
    it, every spread measures the noise rather than the engine (at cold
    gap/kT = 1e-15 and width 0.01, ``mean_heat_hot_pev`` reads
    2.27e-15 +- 0.143).  The repair sees only the Hermitian part
    (t I + (r + dr) . sigma)/2 of rho + N, with t - 1 = re_00 + re_11 and
    dr = (re_01 + re_10, im_10 - im_01, re_00 - re_11).  Each is a sum or
    difference of two independent N(0, w^2) draws, and the four are jointly
    Gaussian with zero covariance, so they are four independent N(0, 2 w^2)
    variables, and those are what is drawn.  All noise comes from one
    generator on ``SeedSequence(seed)``, drawn once per call as an
    ``(n_samples, 4, 4)`` array in C order: sample by sample, for the cold
    and hot equilibria and the expansion and compression outputs,
    (t - 1, dr_x, dr_y, dr_z).  Every tau sees the same draws, and sample
    i's draws do not depend on ``n_samples``.  The draws are then held as
    one C-contiguous ``(4, 4, n_samples)`` copy, (state, component,
    sample), so that each row the repairs read is contiguous; the stream
    and the bits of every draw are those of ``rng.normal`` on that layout
    (see ``_draw_noise``).  The durations run one at a time, so the peak
    memory does not grow with their count.

    With ``rel_noise == 0`` nothing is drawn and each point is reduced as
    one sample: the means are the point estimates, bit for bit, with zero
    spread.  A non-finite width, or one whose draws overflow, is rejected.
    A rank-deficient repaired reference makes a sample's lag infinite; the
    run is then rejected with the number of such samples.

    The point states of a config and tau list are kept, read-only, for the
    next call with any seed, width or sample count (see ``_kept_points``);
    a call whose tau list fails keeps nothing.
    """
    if not 0.0 <= rel_noise < math.inf:
        raise ValueError(f"noise width must be finite and nonnegative, got {rel_noise}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    taus = np.array([float(tau) for tau in tau_list_us], dtype=np.float64)
    points, figures, fields, states = _kept_points(cfg, taus.tobytes())
    if rel_noise == 0.0:
        return [(point, _estimates(figures[:, [k]])) for k, point in enumerate(points)]

    draws = _draw_noise(seed, rel_noise, n_samples)
    if not np.isfinite(draws).all():
        raise ValueError(f"Monte Carlo noise overflows at noise width {rel_noise}")
    trace, shift = 1.0 + draws[:, 0], draws[:, 1:]
    cold_s, hot_s = (_repair_batch(trace[k], states[k] + shift[k]) for k in (0, 1))
    results = []
    for point, exp_r, comp_r in zip(points, states[2].T, states[3].T):
        exp_s = _repair_batch(trace[2], exp_r[:, None] + shift[2])
        comp_s = _repair_batch(trace[3], comp_r[:, None] + shift[3])
        relent = _relative_entropy_batch(exp_s, hot_s)
        relent += _relative_entropy_batch(comp_s, cold_s)
        if np.isinf(relent).any():
            raise ValueError(
                f"relative entropy infinite: {np.isinf(relent).sum()} of {n_samples} "
                "Monte Carlo samples have a rank-deficient reference at noise width "
                f"{rel_noise}"
            )
        results.append((point, _estimates(_figures_of_merit(
            cfg, point.tau_us, fields, (cold_s, hot_s, exp_s, comp_s), relent
        ))))
    return results


# --- internals ---------------------------------------------------------------

def _draw_noise(seed: int, rel_noise: float, n_samples: int) -> np.ndarray:
    """The Monte Carlo draws of :func:`sweep_with_uncertainty` as one
    C-contiguous ``(4, 4, n_samples)`` array, (state, (t - 1, dr_x, dr_y,
    dr_z), sample), so that every row the repairs read is contiguous.

    The stream is drawn in C order, sample by sample, and the array equals
    ``np.moveaxis(rng.normal(0.0, sqrt(2) w, (n, 4, 4)), 0, -1)`` bit for
    bit: ``normal`` computes 0 + s z for its scale s, so the added 0.0
    turns the -0.0 of an underflowing s z into +0.0 as it does.  An
    overflowing s z is left infinite, for the caller's finiteness check.
    """
    # allocated before the draw: in the other order, a 5000-sample call
    # took ~160 more minor page faults from the allocator (glibc)
    draws = np.empty((4, 4, n_samples))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    standard = rng.standard_normal((n_samples, 4, 4))
    with np.errstate(over="ignore"):
        np.multiply(standard.transpose(1, 2, 0), math.sqrt(2.0) * rel_noise, out=draws)
    draws += 0.0
    return draws


# pays on mc_cycle: 32 hits / 18 misses over seed 1's 27 s request list,
# where requests repeat an (engine, tau) with a new seed (tau_scan:
# 0 hits / 0 misses, as sweep_tau and run_cycle keep nothing).  What
# _sweep_points returns, read-only, the reports as a tuple, keyed on the
# config and the bytes of the float tau list.  About 1.9 kB plus 0.5 kB per
# duration an entry (tracemalloc)
@functools.lru_cache(maxsize=32)
def _kept_points(
    cfg: CycleConfig, tau_bytes: bytes
) -> tuple[tuple[CycleReport, ...], np.ndarray, tuple[np.ndarray, np.ndarray],
           tuple[np.ndarray, ...]]:
    points, figures, fields, states = _sweep_points(
        cfg, np.frombuffer(tau_bytes, dtype=np.float64).tolist())
    for array in (figures, *states):
        array.flags.writeable = False
    return tuple(points), figures, fields, tuple(states)


def _sweep_points(
    cfg: CycleConfig, tau_list_us: Sequence[float]
) -> tuple[list[CycleReport], np.ndarray, tuple[np.ndarray, np.ndarray], list[np.ndarray]]:
    """The point reports of a tau list and their ``(7, n_tau)`` figures,
    with what the Monte Carlo resamples: the Bloch vectors of the endpoint
    Hamiltonians (cold, hot) and of the four cycle states."""
    # evolve_unitaries rejects an empty list, and every duration that is not
    # positive and finite, before anything is propagated, drawn or planned
    taus = [float(tau) for tau in tau_list_us]
    forward, _ = evolve_unitaries(cfg.protocol, taus, cfg.n_steps)
    vectors, (cold_part, hot_part), baths, fields, equilibria = _cycle_plan(
        cfg.protocol.nu_initial_khz, cfg.protocol.nu_final_khz,
        cfg.thermal.kt_cold_pev, cfg.thermal.kt_hot_pev,
    )
    backward = forward.conj().transpose(0, 2, 1)
    swap_probs = propagator._flip_probabilities(forward, *vectors)
    # the drives map the traceless parts r . sigma/2 alone: with the I/2,
    # a hot bath's Bloch components would be differences of numbers near 1/2
    states = [*equilibria,
              _bloch(_product(_product(forward, cold_part), backward)),
              _bloch(_product(_product(backward, hot_part), forward))]
    points, figures = _report_from_states(cfg, taus, fields, baths, swap_probs, states)
    return points, figures, fields, states


# pays on mc_cycle: 16 hits / 2 misses over seed 1's 27 s request list,
# one call per _kept_points miss, where requests repeat an engine (tau_scan:
# 0 hits / 10 misses); bypassing it cost mc_cycle ~3 % of its tau_points_per_s
# (175.0 -> 170.1 on seed 1, 175.4 -> 170.3 on seed 1009, 10 alternating
# pairs each on a 2-core VM, the bypass winning 2 and 1 of them).
# What an engine fixes at every drive duration, as read-only (cold, hot)
# pairs: the endpoint eigenvectors (from the propagator's eigensystem), the
# traceless parts rho - I/2 of the Gibbs states, and the Bloch vectors of
# the Hamiltonians and equilibria; and the baths' gap/kT and polarizations
# as two (cold, hot) arrays.  s/tau is exactly 1 at the ramp's end, so a
# protocol of tau = 1 builds them with the bits of every tau.  About 2.7 kB
# an entry
@functools.lru_cache(maxsize=32)
def _cycle_plan(
    nu_initial_khz: float, nu_final_khz: float, kt_cold_pev: float, kt_hot_pev: float
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    ends = ((nu_initial_khz, kt_cold_pev), (nu_final_khz, kt_hot_pev))
    keys = (("cold", "nu_initial_khz", "kt_cold_pev"), ("hot", "nu_final_khz", "kt_hot_pev"))
    hamiltonians = endpoint_hamiltonians(DriveProtocol(nu_initial_khz, nu_final_khz, 1.0))
    gibbs, vectors = [], []
    for (bath, nu_key, kt_key), (nu, kt), h in zip(keys, ends, hamiltonians):
        # a gap/kT past the float range is inf, which the lag would report
        if not math.isfinite(_gap_over_kt(nu, kt)):
            raise ValueError(
                f"{bath} bath gap/kT is not finite: {nu_key} = {nu:g}, {kt_key} = {kt:g}")
        try:
            gibbs.append(gibbs_state(h, kt))
            vectors.append(propagator.eigensystem(h)[1])
        except ValueError as exc:
            if str(exc) != "degenerate Hamiltonian":
                raise
            raise ValueError(f"{exc} at the {bath} end: {nu_key} = {nu:g}") from None
    plan = (
        tuple(vectors),
        tuple(rho - IDENTITY / 2.0 for rho in gibbs),
        tuple(np.array([f(*end) for end in ends]) for f in (_gap_over_kt, polarization)),
        tuple(_bloch(h) for h in hamiltonians),
        tuple(_bloch(rho[None]) for rho in gibbs),
    )
    for pair in plan:
        for array in pair:
            array.flags.writeable = False
    return plan


def _report_from_states(
    cfg: CycleConfig,
    tau_list_us: Sequence[float],
    fields: tuple[np.ndarray, np.ndarray],
    baths: tuple[np.ndarray, np.ndarray],
    swap_probs: np.ndarray,
    states: Sequence[np.ndarray],
) -> tuple[list[CycleReport], np.ndarray]:
    """Point reports for a whole stack of drive durations, in order, from the
    n_tau swap probabilities and the Bloch vectors of the four cycle states:
    the equilibria as ``(3, 1)``, the drive outputs as ``(3, n_tau)``; and
    the ``(7, n_tau)`` figures of the one :func:`_figures_of_merit` call."""
    relent_sum = _drive_relative_entropy(baths, swap_probs)
    figures = _figures_of_merit(cfg, np.asarray(tau_list_us), fields, states, relent_sum)
    efficiency_otto = 1.0 - cfg.protocol.nu_initial_khz / cfg.protocol.nu_final_khz
    efficiency_carnot = 1.0 - cfg.thermal.kt_cold_pev / cfg.thermal.kt_hot_pev
    # the rows are the MONTE_CARLO_FIELDS, passed in CycleReport's field order
    return [
        CycleReport(tau, swap_prob, work, heat_hot, heat_cold, efficiency,
                    efficiency_otto, efficiency_carnot, lag, sigma, power, work > 0.0)
        for tau, swap_prob, work, heat_hot, heat_cold, efficiency, lag, sigma, power
        in zip(tau_list_us, swap_probs.tolist(), *figures.tolist())
    ], figures


def _figures_of_merit(
    cfg: CycleConfig,
    tau_us: float | np.ndarray,
    fields: tuple[np.ndarray, np.ndarray],
    states: Sequence[np.ndarray],
    relent_sum: np.ndarray,
) -> np.ndarray:
    """The ``MONTE_CARLO_FIELDS`` as the rows of one ``(7, n)`` array, for
    ``(3, n)`` stacks of the four cycle states' Bloch vectors (an
    equilibrium may be ``(3, 1)``), given the drive duration (one, or one per
    stack entry), the Bloch vectors of the endpoint Hamiltonians (cold, hot)
    and S(rho_exp || rho_hot) + S(rho_comp || rho_cold) per stack entry.
    Efficiency and lag are NaN where no heat comes from the hot reservoir."""
    cold_eq, hot_eq, after_exp, after_comp = states
    field_cold, field_hot = fields
    heat_hot = _trace_pairing(field_hot, hot_eq - after_exp)
    heat_cold = _trace_pairing(field_cold, cold_eq - after_comp)
    work = heat_hot + heat_cold
    divisor = np.where(heat_hot == 0.0, np.nan, heat_hot)
    period = 2.0 * tau_us + cfg.t_thermalization_us
    lag = relent_sum / ((1.0 / cfg.thermal.kt_cold_pev) * divisor)
    sigma = entropy_production_drive(heat_cold, heat_hot, cfg.thermal)
    power = US_PER_MS * work / period
    return np.stack((work, heat_hot, heat_cold, work / divisor, lag, sigma, power))


def _estimates(figures: np.ndarray) -> dict[str, UncertaintyEstimate]:
    """Mean and sample standard deviation (0 for one sample) of each field's
    row of the ``(7, n)`` samples of :func:`_figures_of_merit`, in one
    reduction whose rows round as np.mean/np.std of each row: each row's
    mean is taken once, and the variance pass repeats np.std's steps on it
    (subtract, square, sum, divide by n - 1, square root).  The samples
    die with the call, so a sweep holds none across its durations."""
    n = figures.shape[1]
    means = figures.sum(axis=1, keepdims=True)
    means /= n
    if n > 1:
        deviations = np.subtract(figures, means)
        np.square(deviations, out=deviations)
        stddevs = deviations.sum(axis=1)
        stddevs /= n - 1
        np.sqrt(stddevs, out=stddevs)
    else:
        stddevs = np.zeros(len(figures))
    return dict(zip(MONTE_CARLO_FIELDS, map(
        UncertaintyEstimate, means[:, 0].tolist(), stddevs.tolist())))


def _drive_relative_entropy(
    baths: tuple[np.ndarray, np.ndarray], swap_probs: np.ndarray
) -> np.ndarray:
    """S(rho_exp || rho_hot) + S(rho_comp || rho_cold) for an array of swap
    probabilities xi, from the baths' gap/kT x = (x_c, x_h) and
    polarizations a = tanh(x/2), the cold bath's at the initial gap and the
    hot bath's at the final one.

    rho_hot is diagonal in the eigenbasis of H_f, where rho_exp has the
    excited population (1 - a_c)/2 + xi a_c, and S(rho_exp) = S(rho_cold);
    the compression term swaps the baths.  The log-partition functions
    cancel between the two strokes, which leaves

        (a_h - a_c)(x_h - x_c)/2 + xi (a_c x_h + a_h x_c),

    two nonnegative terms.  For lo <= hi the two x's, a(hi) - a(lo) is
    -2 e^-lo expm1(lo - hi) / ((1 + e^-lo)(1 + e^-hi)): no exp overflows,
    and no digit is lost where both polarizations round to 1.
    """
    (x_c, x_h), (a_c, a_h) = baths
    lo, hi = sorted((x_c, x_h))
    e_lo, e_hi = np.exp(-lo), np.exp(-hi)
    spread = -2.0 * e_lo * np.expm1(lo - hi) / ((1.0 + e_lo) * (1.0 + e_hi))
    return 0.5 * spread * (hi - lo) + swap_probs * (a_c * x_h + a_h * x_c)


def _trace_pairing(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """tr[H rho] = h . r/2 for the Bloch vector h of a traceless H and the
    ``(3, n)`` Bloch vectors r of a stack of states, summed term by term so
    each entry rounds alone."""
    return 0.5 * (h[0] * r[0] + h[1] * r[1] + h[2] * r[2])


def _repair_batch(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bloch vectors, ``(3, n)``, of the valid states nearest to the
    Hermitian parts (t I + r . sigma)/2 of a stack given as t ``(n,)`` and
    r ``(3, n)``: clip negative eigenvalues, renormalize the trace.
    The eigenvalues are (t +- |r|)/2, so the repaired Bloch vector is r/t
    when |r| <= t, r/|r| when |r| > t and t + |r| > 0, and 0 (I/2)
    otherwise.  That does not change when (t, r) is scaled by c > 0, so
    (t, r) is first divided by max(|t|, max |r_i|) and |r| cannot overflow.
    The steps run on three scratch rows and the returned array; t and r
    are left as they are.  The rows are separate arrays: one block of them
    raised a CLI sweep's peak RSS by ~50 kB.
    """
    size, t_unit, spare = (np.empty(len(t)) for _ in range(3))
    np.abs(t, out=size)
    np.maximum(size, np.abs(r[0], out=spare), out=size)
    np.maximum(np.abs(r[1], out=t_unit), np.abs(r[2], out=spare), out=t_unit)
    np.maximum(size, t_unit, out=size)
    size[~(size > 0.0)] = 1.0
    np.divide(t, size, out=t_unit)
    repaired = np.divide(r, size)
    length = _length(repaired, size, spare)
    np.add(t_unit, length, out=spare)
    invalid = ~(spare > 0.0)
    scale = np.maximum(t_unit, length, out=spare)
    scale[invalid] = 1.0
    np.divide(1.0, scale, out=scale)
    scale[invalid] = 0.0
    repaired *= scale
    return repaired


def _relative_entropy_batch(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S(a||b) for stacks of unit-trace states a = (I + r . sigma)/2 and
    b = (I + s . sigma)/2 given by their ``(3, n)`` Bloch vectors; +inf
    where b has an eigenvalue (1 - |s|)/2 < 1e-12.  In polarization form,

        S(a||b) = phi(|r|) - ln(1 - |s|^2)/2 - (r . s) atanh(|s|)/|s|,

    phi(x) = x atanh(x) + ln(1 - x^2)/2, the last term 0 at s = 0.  No
    eigenvalue's logarithm is taken (see ``_atanh_terms``), so S keeps its
    relative digits near I/2.  A pure a (|r| = 1 up to rounding) is read at
    the largest double below 1, where phi is ln 2 to 2e-15.  The steps run
    on five scratch rows, the first of which is returned; neither stack is
    written to.
    """
    shape = np.broadcast_shapes(r.shape[1:], s.shape[1:])
    entropy, x, y = (np.empty(shape) for _ in range(3))
    _length(s, y, entropy)
    singular = 0.5 * (1.0 - y) < 1e-12
    y[singular] = 0.0  # any |s| below 1 keeps the steps finite there
    np.minimum(_length(r, x, entropy), 1.0 - 2.0**-53, out=x)
    atanh, log = np.empty(shape), np.empty(shape)
    # 2 S, halved at the end
    _atanh_terms(x, atanh, log)
    np.multiply(x, atanh, out=entropy)
    entropy -= log
    _atanh_terms(y, atanh, log)
    entropy += log
    dot = np.multiply(r[0], s[0], out=x)
    dot += np.multiply(r[1], s[1], out=log)
    dot += np.multiply(r[2], s[2], out=log)
    dot *= atanh
    y[~(y > 0.0)] = 1.0
    dot /= y
    entropy -= dot
    entropy *= 0.5
    entropy[singular] = np.inf
    return entropy


def _atanh_terms(v: np.ndarray, atanh: np.ndarray, log: np.ndarray) -> None:
    """2 atanh(v) = log1p(2q) into ``atanh`` and -ln(1 - v^2) =
    log1p(q v/(1 + v)) into ``log``, q = v/(1 - v), for 0 <= v < 1: each
    factor keeps its relative digits (1 - v is exact above 1/2, where v^2
    would round off those of 1 - v^2)."""
    np.subtract(1.0, v, out=atanh)
    np.divide(v, atanh, out=atanh)
    np.add(1.0, v, out=log)
    np.divide(v, log, out=log)
    log *= atanh
    np.log1p(log, out=log)
    atanh *= 2.0
    np.log1p(atanh, out=atanh)


def _length(r: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """|r| of ``(3, n)`` Bloch vectors, the squares summed in the order of
    numpy's vector norm, into ``out``; ``spare`` is scratch of the same shape."""
    np.multiply(r[0], r[0], out=out)
    out += np.multiply(r[1], r[1], out=spare)
    out += np.multiply(r[2], r[2], out=spare)
    return np.sqrt(out, out=out)
