"""Seeded inputs for the three workloads.

Nothing here imports ottospin: a workload's inputs are plain configuration
texts plus the parameters the output checks need, generated from the
workload seed alone.  The program under test only ever sees the texts.
"""

from __future__ import annotations

import numpy as np

#: h in peV per kHz, as documented in the package README.
PLANCK_PEV_PER_KHZ = 4.135667696

#: Documented defaults of the reference engine.
DEFAULT_TAU_GRID_US = (
    100.0, 200.0, 235.0, 260.0, 300.0, 320.0, 420.0, 500.0, 600.0, 700.0,
)
DEFAULT_NU_KHZ = (2.0, 3.6)
DEFAULT_KT_COLD_PEV = 6.6
HOT_PRESETS_PEV = {"A": 21.5, "B": 40.5}
T_THERMALIZATION_US = 7000.0

#: Fine drive-duration grid of the maximum-power criterion: 100..700 us.
FINE_TAU_GRID_US = tuple(100.0 + 10.0 * i for i in range(61))

SWEEP_MC_SAMPLES = 1000
SWEEP_NOISE = 0.01
#: Five times a sweep's 1000, so that Monte Carlo still takes about 90 % of
#: a request, yet small enough that a 27 s run makes 50 requests: enough
#: for a tail percentile, and a median over more moments of the host's load.
MC_CYCLE_SAMPLES = 5000
MC_CYCLE_NOISE = 0.01

#: tau_scan configs come in blocks of this many; the last of each block is
#: drawn from the low-kT_cold corner, so every run holds the same share.
TAU_SCAN_BLOCK = 8

#: Per workload: the number of requests whose mix of costs repeats (the
#: ten durations of an mc_cycle round), and roughly the normalized seconds
#: (see hostspeed.py) those requests take at the baseline.  A run makes
#: whole units only.  A tau_scan engine takes about 2.6 s on average over a
#: block, the corner engine next to nothing; the kernel work of a block
#: varies by about 2 % from seed to seed, so a run need not end on a
#: block's boundary.
RUN_UNITS = {
    "sweep_cli": (1, 1.8),
    "tau_scan": (1, 2.6),
    "mc_cycle": (10, 5.0),
}

#: Frequencies are drawn on this lattice (kHz) so that every work atom sits
#: on a multiple of h * NU_STEP_KHZ and the characteristic function can be
#: inverted exactly.
NU_STEP_KHZ = 0.1

#: A bath whose Gibbs weight of the upper level falls below 1e-12, that is
#: whose gap/kT exceeds ln(1e12) = 27.63, trips the guard of the relative
#: entropy ("relative entropy infinite"), a known defect.  Ordinary engines
#: keep both baths below it; corner engines put the cold bath above it.
#: The cold gap/kT of ordinary engines spans the rest of the range on a log
#: scale (the reference engine has 1.25); the small margins around the
#: threshold keep round-off from deciding which side an engine falls on.
ORDINARY_GAP_OVER_KT = (0.1, 27.5)
CORNER_GAP_OVER_KT = (27.8, 60.0)
#: Largest gap/kT of the hot bath of an ordinary engine.
HOT_GAP_OVER_KT_MAX = 27.5


def request_count(workload: str, seconds: float) -> int:
    """Requests in a run of the given length: the whole units of the
    workload that take closest to ``seconds`` at the baseline, at least one.
    The count depends on nothing measured, so a seed makes the same requests
    -- and the same failures -- in every run of the same code."""
    size, unit_s = RUN_UNITS[workload]
    return size * max(1, round(seconds / unit_s))


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = sum(ord(c) * 31**i for i, c in enumerate(workload)) % 2**32
    return np.random.default_rng([seed, key])


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {float(value)!r}" if isinstance(value, float)
                     else f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def sweep_cli(seed: int, count: int) -> list[dict]:
    """Default sweep configs; hot preset, MC seed and format vary."""
    rng = _rng(seed, "sweep_cli")
    out = []
    for _ in range(count):
        hot = str(rng.choice(["A", "B"]))
        fmt = str(rng.choice(["csv", "json"]))
        mc_seed = int(rng.integers(0, 2**31))
        text = _ini({
            "thermal": {"hot_option": hot},
            "monte_carlo": {"samples": SWEEP_MC_SAMPLES, "noise_width": SWEEP_NOISE,
                            "seed": mc_seed},
            "output": {"format": fmt},
        })
        out.append({
            "text": text, "format": fmt,
            "nu_i": DEFAULT_NU_KHZ[0], "nu_f": DEFAULT_NU_KHZ[1],
            "kt_cold": DEFAULT_KT_COLD_PEV, "kt_hot": HOT_PRESETS_PEV[hot],
            "taus": DEFAULT_TAU_GRID_US, "mc_samples": SWEEP_MC_SAMPLES,
        })
    return out


def tau_scan(seed: int, count: int) -> list[dict]:
    """Random engines (custom hot bath) for the 61-point duration scan.

    Each block of TAU_SCAN_BLOCK configs stratifies the initial gap, the
    compression ratio and the log of the cold gap/kT over the ordinary
    range, one stratum each per config, and ends with one corner config.
    Gap strata pair with ratio strata in a fixed Latin pattern and come in
    a fixed order, so that the final gaps -- which set the propagator's
    cost -- follow the same sequence in every block and a run that stops
    inside a block has met the same mix of costs whatever the seed.  The
    cold strata are shuffled across the positions of a block.
    """
    rng = _rng(seed, "tau_scan")
    out: list[dict] = []
    n_ord = TAU_SCAN_BLOCK - 1
    pairing = (3 * np.arange(n_ord)) % n_ord
    while len(out) < count:
        strata = (np.arange(n_ord)[None, :] + rng.random((3, n_ord))) / n_ord
        u_nu, u_ratio, u_x = strata[0], strata[1][pairing], rng.permutation(strata[2])
        out.extend(_engine(rng, u_nu[j], u_ratio[j], u_x[j], "ordinary")
                   for j in range(n_ord))
        out.append(_engine(rng, *rng.random(3), "corner"))
    return out[:count]


_GAP_OVER_KT = {"ordinary": ORDINARY_GAP_OVER_KT, "corner": CORNER_GAP_OVER_KT}


def _engine(rng: np.random.Generator, u_nu: float, u_ratio: float, u_x: float,
            kind: str) -> dict:
    nu_i = round(1.0 + 2.0 * u_nu, 1)
    nu_f = round(nu_i * (1.2 + 1.2 * u_ratio), 1)
    lo, hi = _GAP_OVER_KT[kind]
    gap_i, gap_f = PLANCK_PEV_PER_KHZ * nu_i, PLANCK_PEV_PER_KHZ * nu_f
    gap_over_kt = lo * (hi / lo) ** u_x
    kt_cold = gap_i / gap_over_kt
    kt_hot = max(kt_cold * rng.uniform(1.5, 6.0), gap_f / HOT_GAP_OVER_KT_MAX)
    text = _ini({
        "drive": {"nu_initial_khz": nu_i, "nu_final_khz": nu_f},
        "thermal": {"hot_option": "custom", "kt_cold_pev": kt_cold,
                    "kt_hot_pev": kt_hot},
    })
    return {
        "text": text, "kind": kind, "cold_gap_over_kt": gap_over_kt,
        "nu_i": nu_i, "nu_f": nu_f, "kt_cold": kt_cold, "kt_hot": kt_hot,
        "taus": FINE_TAU_GRID_US,
        "qpt_tau": float(rng.choice(FINE_TAU_GRID_US)),
        "noise_mix": float(rng.uniform(0.01, 0.5)),
    }


def mc_cycle(seed: int, count: int) -> list[dict]:
    """Single-duration cycles with a large Monte Carlo sample count.

    Every run of ten requests holds each duration of the default grid once,
    in a seeded order: the propagator's cost grows with the duration, and
    this keeps the mix of costs the same in every run.
    """
    rng = _rng(seed, "mc_cycle")
    out = []
    taus = []
    for _ in range(count):
        if not taus:
            taus = [float(t) for t in rng.permutation(DEFAULT_TAU_GRID_US)]
        tau = taus.pop()
        hot = str(rng.choice(["A", "B"]))
        mc_seed = int(rng.integers(0, 2**31))
        text = _ini({
            "thermal": {"hot_option": hot},
            "cycle": {"tau_us": tau},
            "monte_carlo": {"samples": MC_CYCLE_SAMPLES, "noise_width": MC_CYCLE_NOISE,
                            "seed": mc_seed},
        })
        out.append({
            "text": text,
            "nu_i": DEFAULT_NU_KHZ[0], "nu_f": DEFAULT_NU_KHZ[1],
            "kt_cold": DEFAULT_KT_COLD_PEV, "kt_hot": HOT_PRESETS_PEV[hot],
            "taus": (tau,), "mc_samples": MC_CYCLE_SAMPLES,
        })
    return out


GENERATORS = {"sweep_cli": sweep_cli, "tau_scan": tau_scan, "mc_cycle": mc_cycle}
