"""Full four-stroke cycle composition and its figures of merit.

The cycle alternates two drive strokes (gap expansion, gap compression) with
two ideal thermal-contact strokes (full rethermalization with the hot and
cold reservoirs).  Everything here reduces to four states: the two reservoir
equilibria and the two drive outputs; all reported quantities are functions
of those states, which is also what makes the Monte Carlo error propagation a
straight resampling of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .propagator import (
    DEFAULT_N_STEPS,
    evolve_unitaries,
    # not called here: perfbench/tracing.py wraps these one-tau layer
    # boundaries under ottospin.cycle
    evolve_unitary,  # noqa: F401
    propagate_state,  # noqa: F401
    transition_probability,  # noqa: F401
    transition_probabilities,
)
from .spin import (
    PLANCK_PEV_PER_KHZ,
    US_PER_MS,
    DriveProtocol,
    Phase,
    ThermalParams,
    drive_hamiltonian,
    gibbs_state,
    polarization,
)


@dataclass(frozen=True)
class CycleConfig:
    """One engine configuration: drive ramp, reservoirs, stroke timing."""

    protocol: DriveProtocol
    thermal: ThermalParams
    n_steps: int = DEFAULT_N_STEPS
    t_thermalization_us: float = 7000.0
    t_cooling_us: float = 0.0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.t_thermalization_us <= 0.0:
            raise ValueError("thermalization time must be positive")
        if self.t_cooling_us < 0.0:
            raise ValueError("cooling time must be nonnegative")


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
    expansion = replace(protocol, phase=Phase.EXPANSION)
    return (
        drive_hamiltonian(0.0, expansion),
        drive_hamiltonian(expansion.tau_us, expansion),
    )


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """Quantum relative entropy S(a||b) = tr[a (ln a - ln b)] in nats.

    Infinite whenever the support of ``a`` is not inside that of ``b``; a
    reference with an eigenvalue below 1e-12 is rejected rather than returned.
    """
    result = _relative_entropy_batch(np.asarray(a)[None], np.asarray(b)[None])
    if np.isinf(result[0]):
        raise ValueError("relative entropy infinite: reference eigenvalue below 1e-12")
    return float(result[0])


def efficiency_lag(
    after_expansion: np.ndarray,
    hot_equilibrium: np.ndarray,
    after_compression: np.ndarray,
    cold_equilibrium: np.ndarray,
    mean_heat_hot_pev: float,
    beta_cold_per_pev: float,
) -> float:
    """Irreversibility penalty subtracted from the ideal-reservoir efficiency.

    The lag is the summed relative entropy of the two drive outputs to the
    reference equilibria they fail to reach, per unit of hot heat:

        L = [S(rho_exp || rho_hot) + S(rho_comp || rho_cold)] / (beta_cold <Q_hot>)

    and satisfies efficiency = efficiency_carnot - L identically.
    """
    if mean_heat_hot_pev == 0.0:
        raise ValueError("efficiency lag undefined for zero hot heat")
    numerator = relative_entropy(after_expansion, hot_equilibrium) + relative_entropy(
        after_compression, cold_equilibrium
    )
    return numerator / (beta_cold_per_pev * mean_heat_hot_pev)


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


def extraction_bound(protocol: DriveProtocol, thermal: ThermalParams) -> float:
    """Largest transition probability that still permits work extraction.

    Zero when the gap ratio falls outside [1, kT_hot/kT_cold] (no extraction
    is possible at any transition probability there).  Otherwise the unique
    root of the mean-work closed form:

        (nu_f - nu_i)(p_cold - p_hot) / (2 (nu_f p_cold + nu_i p_hot))
    """
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    ratio = nu_f / nu_i
    if not 1.0 <= ratio <= thermal.kt_hot_pev / thermal.kt_cold_pev:
        return 0.0
    p_cold = polarization(nu_i, thermal.kt_cold_pev)
    p_hot = polarization(nu_f, thermal.kt_hot_pev)
    denom = 2.0 * (nu_f * p_cold + nu_i * p_hot)
    if denom == 0.0:
        return 0.0
    return max((nu_f - nu_i) * (p_cold - p_hot) / denom, 0.0)


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
    nu_i, nu_f = protocol.nu_initial_khz, protocol.nu_final_khz
    p_cold = polarization(nu_i, thermal.kt_cold_pev)
    p_hot = polarization(nu_f, thermal.kt_hot_pev)
    if math.isclose(p_cold, p_hot, rel_tol=0.0, abs_tol=1e-15):
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
    results = sweep_with_uncertainty(cfg, tau_list_us, rel_noise=0.0)
    return [report for report, _ in results]


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
    The compression drive H_c(t) = -H_e(tau - t) makes its propagator the
    adjoint U^dagger of the expansion propagator U, so the compression
    stroke maps the hot equilibrium to U^dagger rho_hot U.  The point
    reports of all durations come from one batched pass over these stacks.

    Each state is resampled ``n_samples`` times with additive complex
    Gaussian noise of width ``rel_noise`` per matrix element, repaired to a
    valid state (see ``_repair_batch``), and the report quantities are
    recomputed.  All noise comes from one generator on
    ``SeedSequence(seed)``, drawn once per call as an
    ``(n_samples, 4, 2, 2, 2)`` array in C order: sample by sample, the real,
    then the imaginary part of the noise on the cold and hot equilibria and
    the expansion and compression outputs.  Every tau sees the same draws,
    and sample i's draws do not depend on ``n_samples``.

    With ``rel_noise == 0`` nothing is drawn and the means are the point
    estimates, bit for bit, with zero spread.  A rank-deficient repaired
    reference makes a sample's lag infinite; the run is then rejected with
    the number of such samples.
    """
    if len(tau_list_us) == 0:
        raise ValueError("tau list must be nonempty")
    if rel_noise < 0.0:
        raise ValueError(f"noise width must be nonnegative, got {rel_noise}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")

    expansion = replace(cfg.protocol, phase=Phase.EXPANSION)
    # each duration passes DriveProtocol's checks before anything is drawn
    # or propagated
    taus = [replace(expansion, tau_us=float(tau)).tau_us for tau in tau_list_us]
    h_cold, h_hot = endpoint_hamiltonians(expansion)
    cold_eq = gibbs_state(h_cold, cfg.thermal.kt_cold_pev)
    hot_eq = gibbs_state(h_hot, cfg.thermal.kt_hot_pev)
    log_populations = _gibbs_log_populations(expansion, cfg.thermal)

    forward, _ = evolve_unitaries(expansion, taus, cfg.n_steps)
    backward = forward.conj().transpose(0, 2, 1)
    swap_probs = transition_probabilities(forward, h_cold, h_hot)
    after_exps = forward @ cold_eq @ backward
    after_comps = backward @ hot_eq @ forward
    points = _report_from_states(
        cfg, taus, (h_cold, h_hot), log_populations, swap_probs,
        (cold_eq[None], hot_eq[None], after_exps, after_comps),
    )
    if rel_noise == 0.0:
        return [
            (point, {
                name: UncertaintyEstimate(getattr(point, name), 0.0)
                for name in MONTE_CARLO_FIELDS
            })
            for point in points
        ]

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.normal(0.0, rel_noise, (n_samples, 4, 2, 2, 2))
    cold_s = _repair_noisy(cold_eq, draws[:, 0])
    hot_s = _repair_noisy(hot_eq, draws[:, 1])
    results = []
    for point, after_exp, after_comp in zip(points, after_exps, after_comps):
        exp_s = _repair_noisy(after_exp, draws[:, 2])
        comp_s = _repair_noisy(after_comp, draws[:, 3])
        relent = _relative_entropy_batch(exp_s, hot_s)
        relent += _relative_entropy_batch(comp_s, cold_s)
        if np.isinf(relent).any():
            raise ValueError(
                f"relative entropy infinite: {np.isinf(relent).sum()} of {n_samples} "
                "Monte Carlo samples have a rank-deficient reference at noise width "
                f"{rel_noise}"
            )
        samples = _figures_of_merit(
            cfg, point.tau_us, (h_cold, h_hot), (cold_s, hot_s, exp_s, comp_s), relent
        )
        spread = {
            name: UncertaintyEstimate(
                float(np.mean(values)),
                float(np.std(values, ddof=1)) if n_samples > 1 else 0.0,
            )
            for name, values in samples.items()
        }
        results.append((point, spread))
    return results


# --- internals ---------------------------------------------------------------

def _report_from_states(
    cfg: CycleConfig,
    tau_list_us: Sequence[float],
    hamiltonians: tuple[np.ndarray, np.ndarray],
    log_populations: tuple[np.ndarray, np.ndarray],
    swap_probs: np.ndarray,
    states: Sequence[np.ndarray],
) -> list[CycleReport]:
    """Point reports for a whole stack of drive durations, in order.

    ``states`` are the four cycle states as stacks that broadcast against
    each other: the equilibria as ``(1, 2, 2)``, the drive outputs as
    ``(n_tau, 2, 2)``; ``swap_probs`` holds the n_tau swap probabilities.
    One :func:`_figures_of_merit` call gives every column.
    """
    relent_sum = _drive_relative_entropy(log_populations, swap_probs)
    figures = _figures_of_merit(
        cfg, np.asarray(tau_list_us), hamiltonians, states, relent_sum
    )
    efficiency_otto = 1.0 - cfg.protocol.nu_initial_khz / cfg.protocol.nu_final_khz
    efficiency_carnot = 1.0 - cfg.thermal.kt_cold_pev / cfg.thermal.kt_hot_pev
    columns = [figures[name].tolist() for name in MONTE_CARLO_FIELDS]
    return [
        CycleReport(
            tau_us=tau,
            transition_prob=swap_prob,
            efficiency_otto=efficiency_otto,
            efficiency_carnot=efficiency_carnot,
            extraction_ok=row[0] > 0.0,
            **dict(zip(MONTE_CARLO_FIELDS, row)),
        )
        for tau, swap_prob, *row in zip(tau_list_us, swap_probs.tolist(), *columns)
    ]


def _figures_of_merit(
    cfg: CycleConfig,
    tau_us: float | np.ndarray,
    hamiltonians: tuple[np.ndarray, np.ndarray],
    states: Sequence[np.ndarray],
    relent_sum: np.ndarray,
) -> dict[str, np.ndarray]:
    """The ``MONTE_CARLO_FIELDS`` for stacks of the four cycle states, given
    the drive duration (one, or one per stack entry), the endpoint
    Hamiltonians (cold, hot) and S(rho_exp || rho_hot) +
    S(rho_comp || rho_cold) per stack entry.  Efficiency and lag are NaN
    where no heat comes from the hot reservoir."""
    cold_eq, hot_eq, after_exp, after_comp = states
    h_cold, h_hot = hamiltonians
    heat_hot = _trace_pairing(h_hot, hot_eq - after_exp)
    heat_cold = _trace_pairing(h_cold, cold_eq - after_comp)
    work = heat_hot + heat_cold
    divisor = np.where(heat_hot == 0.0, np.nan, heat_hot)
    period = 2.0 * tau_us + cfg.t_thermalization_us + cfg.t_cooling_us
    lag = relent_sum / ((1.0 / cfg.thermal.kt_cold_pev) * divisor)
    sigma = entropy_production_drive(heat_cold, heat_hot, cfg.thermal)
    power = US_PER_MS * work / period
    figures = (work, heat_hot, heat_cold, work / divisor, lag, sigma, power)
    return dict(zip(MONTE_CARLO_FIELDS, figures))


def _gibbs_log_populations(
    protocol: DriveProtocol, thermal: ThermalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Log-populations (ground, excited) of the cold Gibbs state in H_i and
    of the hot one in H_f: -E/kT - log Z, with log Z = gap/2kT +
    log1p(exp(-gap/kT)), which never logs a small population."""
    x = PLANCK_PEV_PER_KHZ * np.array(
        [protocol.nu_initial_khz, protocol.nu_final_khz]
    ) / np.array([thermal.kt_cold_pev, thermal.kt_hot_pev])
    log_p, log_q = np.stack([np.zeros(2), -x], axis=1) - np.log1p(np.exp(-x))[:, None]
    return log_p, log_q


def _drive_relative_entropy(
    log_populations: tuple[np.ndarray, np.ndarray], swap_probs: np.ndarray
) -> np.ndarray:
    """S(rho_exp || rho_hot) + S(rho_comp || rho_cold) for an array of swap
    probabilities xi, from the cold and hot Gibbs log-populations log p,
    log q.

    Unitarity gives S(rho_exp) = S(rho_cold), and rho_hot is diagonal in the
    eigenbasis of H_f, where rho_exp has the populations T(xi) p; so
    S(rho_exp || rho_hot) = sum p log p - sum (T(xi) p)_m log q_m, and the
    compression term swaps p and q.  The transfer matrices T(xi) (see
    :func:`~ottospin.tpm.transition_matrix`) form one stack, and each
    population pair T(xi) p meets log q in a stacked (1, 2) @ (2,) product,
    which rounds as the 1-d product of one pair does (a plain (n, 2) @ (2,)
    product does not).
    """
    log_p, log_q = log_populations
    p, q = np.exp(log_p), np.exp(log_q)
    stay = 1.0 - swap_probs
    transfer = np.stack([stay, swap_probs, swap_probs, stay], axis=-1).reshape(-1, 2, 2)
    to_hot, to_cold = (transfer @ p)[:, None], (transfer @ q)[:, None]
    return p @ log_p - (to_hot @ log_q)[:, 0] + q @ log_q - (to_cold @ log_p)[:, 0]


def _trace_pairing(operator: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re tr[operator @ state] for a stack of states."""
    return np.real(np.einsum("ij,nji->n", operator, states))


def _repair_noisy(state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Repaired ``state + re + i im`` for a stack of (re, im) noise pairs."""
    return _repair_batch(state + (draws[:, 0] + 1j * draws[:, 1]))


def _bloch(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) of the Hermitian parts (t I + r . sigma)/2 of a matrix stack."""
    upper, lower = matrices[:, 0, 0].real, matrices[:, 1, 1].real
    off = matrices[:, 0, 1] + np.conj(matrices[:, 1, 0])
    return upper + lower, np.stack([off.real, -off.imag, upper - lower], axis=-1)


def _repair_batch(matrices: np.ndarray) -> np.ndarray:
    """Project noisy matrices back to valid states: Hermitize, clip negative
    eigenvalues, renormalize the trace.  The Hermitian part (t I + r . sigma)/2
    has eigenvalues (t +- |r|)/2, so the repaired Bloch vector is r/t when
    |r| <= t, r/|r| when |r| > t and t + |r| > 0, and 0 (I/2) otherwise.
    """
    herm = 0.5 * (matrices + np.conj(np.swapaxes(matrices, 1, 2)))
    t, r = _bloch(herm)
    length = np.linalg.norm(r, axis=-1)
    valid = t + length > 0.0
    scale = np.where(valid, 1.0 / np.where(valid, np.maximum(t, length), 1.0), 0.0)
    shift = 0.5 * (1.0 - scale * t)
    return scale[:, None, None] * herm + shift[:, None, None] * np.eye(2)


def _relative_entropy_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S(a||b) for stacks of 2x2 states; +inf where b has an eigenvalue < 1e-12.

    For a = (t I + r . sigma)/2 and b = (u I + s . sigma)/2 with eigenvalues
    (t +- |r|)/2 and mu_+- = (u +- |s|)/2, tr[a ln b] is
    [(t + r.s/|s|) ln mu_+ + (t - r.s/|s|) ln mu_-]/2, with r.s/|s| = 0 at s = 0.
    """
    (t, r), (u, s) = _bloch(a), _bloch(b)
    r_len, s_len = np.linalg.norm(r, axis=-1), np.linalg.norm(s, axis=-1)
    eig_a = np.clip(0.5 * np.stack([t + r_len, t - r_len], axis=-1), 0.0, None)
    entropy_a = np.sum(eig_a * np.log(np.where(eig_a > 0.0, eig_a, 1.0)), axis=-1)
    eig_b = 0.5 * np.stack([u + s_len, u - s_len], axis=-1)
    singular = eig_b[:, 1] < 1e-12
    log_b = np.log(np.where(singular[:, None], 1.0, eig_b))
    along = np.einsum("ni,ni->n", r, s) / np.where(s_len > 0.0, s_len, 1.0)
    cross = 0.5 * ((t + along) * log_b[:, 0] + (t - along) * log_b[:, 1])
    return np.where(singular, np.inf, entropy_a - cross)
