"""Output checks applied to every request.

The identities are the ones the acceptance suite asserts (First Law,
efficiency as W/Q_h, the lag identity, two-route entropy production, the
closed-form mean work), recomputed here from the reported numbers with
formulas written out independently of the package.  Tolerances are
relative and loose enough that last-digit changes pass; nothing compares
bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import PLANCK_PEV_PER_KHZ, T_THERMALIZATION_US

#: Relative tolerance of the cycle identities.
IDENTITY_RTOL = 1e-8
#: Absolute tolerance against the transition-probability reference table.
REFERENCE_ATOL = 1e-6
#: Atom position and weight tolerance of the characteristic round trip.
ROUND_TRIP_ATOL = 1e-6
#: The lag identity and the two entropy-production routes go through the
#: relative entropy, whose eigenvalue route takes the log of a reference
#: eigenvalue near e^-(gap/kT), known to an absolute 1e-16 or so: on cold
#: baths the identities lose digits.  A miss between IDENTITY_RTOL and
#: this tolerance is that known defect; a larger one is a wrong result.
PRECISION_DEFECT_RTOL = 1e-5

STDDEV_FIELDS = tuple(
    f"{name}_stddev" for name in (
        "mean_work_pev", "mean_heat_hot_pev", "mean_heat_cold_pev", "efficiency",
        "efficiency_lag", "entropy_production", "power_pev_per_ms",
    )
)


def load_reference() -> dict[float, float]:
    """tau_us -> transition probability of the default ramp."""
    data = json.loads((Path(__file__).parent / "tau_reference.json").read_text())
    return {row["tau_us"]: row["transition_prob"] for row in data["rows"]}


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= IDENTITY_RTOL * max(scale, 1e-12)


def _polarization(nu_khz: float, kt_pev: float) -> float:
    return math.tanh(PLANCK_PEV_PER_KHZ * nu_khz / (2.0 * kt_pev))


def closed_form_work(nu_i, nu_f, kt_cold, kt_hot, p) -> float:
    """(h/2)(nu_f - nu_i)(P_c - P_h) - h p (nu_f P_c + nu_i P_h)."""
    pc, ph = _polarization(nu_i, kt_cold), _polarization(nu_f, kt_hot)
    h = PLANCK_PEV_PER_KHZ
    return 0.5 * h * (nu_f - nu_i) * (pc - ph) - h * p * (nu_f * pc + nu_i * ph)


def _precision_defect(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= PRECISION_DEFECT_RTOL * max(scale, 1e-12)


def check_row(row: dict, inp: dict, tau: float,
              reference: dict | None) -> tuple[list[str], list[str]]:
    """Problems with one report row, and the known defects it shows (both
    empty when it passes).

    ``row`` maps the report and stddev column names to floats (the stddev
    columns may be absent for in-process reports without Monte Carlo).
    """
    bad, defects = [], []
    p, w = row["transition_prob"], row["mean_work_pev"]
    qh, qc = row["mean_heat_hot_pev"], row["mean_heat_cold_pev"]
    eta, lag = row["efficiency"], row["efficiency_lag"]
    eta_c, sigma = row["efficiency_carnot"], row["entropy_production"]
    heat_scale = abs(qh) + abs(qc)
    if not all(math.isfinite(v) for v in (p, w, qh, qc, eta, lag, eta_c, sigma)):
        return [f"tau {tau}: non-finite report value"], defects
    if not _close(row["tau_us"], tau, tau):
        bad.append(f"tau {tau}: row reports tau {row['tau_us']}")
    if not 0.0 <= p <= 1.0:
        bad.append(f"tau {tau}: transition probability {p} outside [0, 1]")
    if not _close(w, qh + qc, heat_scale):
        bad.append(f"tau {tau}: First Law W={w} vs Qh+Qc={qh + qc}")
    if not _close(eta * qh, w, heat_scale):
        bad.append(f"tau {tau}: efficiency {eta} is not W/Qh")
    lag_scale = 1.0 + abs(eta) + abs(lag)
    if not _close(eta, eta_c - lag, lag_scale):
        if _precision_defect(eta, eta_c - lag, lag_scale):
            defects.append("relative_entropy_precision")
        else:
            bad.append(f"tau {tau}: lag identity eta={eta} vs eta_C-L={eta_c - lag}")
    relent_route = qh * lag / inp["kt_cold"]
    if not _close(sigma, relent_route, 1.0 + abs(sigma)):
        if _precision_defect(sigma, relent_route, 1.0 + abs(sigma)):
            defects.append("relative_entropy_precision")
        else:
            bad.append(f"tau {tau}: entropy production {sigma} vs relative-entropy "
                       f"route {relent_route}")
    w_cf = closed_form_work(inp["nu_i"], inp["nu_f"], inp["kt_cold"], inp["kt_hot"], p)
    if not _close(w, w_cf, heat_scale):
        bad.append(f"tau {tau}: W={w} vs closed form {w_cf} at P={p}")
    if not _close(eta_c, 1.0 - inp["kt_cold"] / inp["kt_hot"], 1.0):
        bad.append(f"tau {tau}: Carnot efficiency {eta_c}")
    if not _close(row["efficiency_otto"], 1.0 - inp["nu_i"] / inp["nu_f"], 1.0):
        bad.append(f"tau {tau}: Otto efficiency {row['efficiency_otto']}")
    period = 2.0 * tau + T_THERMALIZATION_US
    if not _close(row["power_pev_per_ms"], 1000.0 * w / period, 1000.0 * heat_scale / period):
        bad.append(f"tau {tau}: power {row['power_pev_per_ms']} is not W/period")
    if abs(w) > 1e-9 and bool(row["extraction_ok"]) != (w > 0.0):
        bad.append(f"tau {tau}: extraction_ok {row['extraction_ok']} with W={w}")
    if reference is not None and tau in reference:
        if abs(p - reference[tau]) > REFERENCE_ATOL:
            bad.append(f"tau {tau}: P={p} vs reference {reference[tau]}")
    for name in STDDEV_FIELDS:
        if name in row and not (math.isfinite(row[name]) and row[name] >= 0.0):
            bad.append(f"tau {tau}: {name}={row[name]} not finite and >= 0")
    return bad, defects


def check_rows(rows: list[dict], inp: dict,
               reference: dict | None) -> tuple[list[str], list[list[str]]]:
    """Problems with a table of rows, and per row the known defects it shows
    (none for a row that passes or fails for another reason)."""
    if len(rows) != len(inp["taus"]):
        return [f"{len(rows)} rows for {len(inp['taus'])} durations"], []
    bad, defects = [], []
    for row, tau in zip(rows, inp["taus"]):
        row_bad, row_defects = check_row(row, inp, tau, reference)
        bad.extend(row_bad)
        defects.append([] if row_bad else sorted(set(row_defects)))
    return bad, defects


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of a ``sweep`` CSV or JSON table as name -> float dicts."""
    if fmt == "json":
        records = json.loads(text)
        return [{k: (math.nan if v is None else float(v)) for k, v in r.items()}
                for r in records]
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({name: (cell == "true") if name == "extraction_ok" else float(cell)
                     for name, cell in zip(header, cells)})
    return rows


def check_distributions(report, work, heat, recovered) -> list[str]:
    """TPM means equal the cycle means; the characteristic round trip
    recovers every atom of the work distribution."""
    bad = []
    tau = report.tau_us
    scale = abs(report.mean_heat_hot_pev) + abs(report.mean_heat_cold_pev)
    tpm_work = sum(e * q for e, q in zip(work.energies_pev, work.probabilities))
    tpm_heat = sum(e * q for e, q in zip(heat.energies_pev, heat.probabilities))
    if not _close(tpm_work, report.mean_work_pev, scale):
        bad.append(f"tau {tau}: TPM mean work {tpm_work} vs {report.mean_work_pev}")
    if not _close(tpm_heat, report.mean_heat_hot_pev, scale):
        bad.append(f"tau {tau}: TPM mean heat {tpm_heat} vs {report.mean_heat_hot_pev}")
    if recovered is None:
        return bad
    got = list(zip(recovered.energies_pev, recovered.probabilities))
    for e, q in zip(work.energies_pev, work.probabilities):
        if q > 1e-7 and not any(abs(e - ge) < ROUND_TRIP_ATOL
                                and abs(q - gq) < ROUND_TRIP_ATOL for ge, gq in got):
            bad.append(f"tau {tau}: round trip lost the atom ({e}, {q})")
    for ge, gq in got:
        if not any(abs(ge - e) < ROUND_TRIP_ATOL for e in work.energies_pev):
            bad.append(f"tau {tau}: round trip invented an atom ({ge}, {gq})")
    if abs(sum(recovered.probabilities) - 1.0) > ROUND_TRIP_ATOL:
        bad.append(f"tau {tau}: round trip weights sum to {sum(recovered.probabilities)}")
    return bad


def check_process(diag: dict, noise_mix: float) -> list[str]:
    """A pure unitary is unital and at distance 0 from itself; mixing in the
    depolarizing channel with weight w moves it by exactly 0.75 w."""
    bad = []
    if not diag["unitality_ideal"] < 1e-10:
        bad.append(f"unitality defect of the unitary {diag['unitality_ideal']}")
    if not diag["unitality_mixed"] < 1e-10:
        bad.append(f"unitality defect of the mixture {diag['unitality_mixed']}")
    if not diag["self_distance"] < 1e-12:
        bad.append(f"self distance {diag['self_distance']}")
    if not abs(diag["mixed_distance"] - 0.75 * noise_mix) < 1e-9:
        bad.append(f"mixture distance {diag['mixed_distance']} vs {0.75 * noise_mix}")
    return bad
