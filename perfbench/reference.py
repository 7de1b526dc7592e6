#!/usr/bin/env python3
"""Rebuild tau_reference.json: transition probabilities of the default ramp
on the default duration grid, by an integration that shares no code with
the package or its tests.

The expansion drive H(t) = -(h nu(t)/2)(cos phi sigma_x + sin phi sigma_y),
nu(t) = nu_i + (nu_f - nu_i) t/tau, phi = pi t / (2 tau), is integrated as
dU/dt = i pi nu(t) 1e-3 (cos phi sigma_x + sin phi sigma_y) U with classical
fixed-step RK4, all durations at once.  The result is taken at 2N steps and
its distance to the N-step result is stored as the error estimate.

Usage: python3 perfbench/reference.py   (about 15 s; numpy only)
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import DEFAULT_NU_KHZ, DEFAULT_TAU_GRID_US

STEPS = 40_000

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _generator(t: np.ndarray, tau: np.ndarray) -> np.ndarray:
    nu_i, nu_f = DEFAULT_NU_KHZ
    nu = nu_i + (nu_f - nu_i) * t / tau
    phi = 0.5 * np.pi * t / tau
    axis = np.cos(phi)[:, None, None] * SX + np.sin(phi)[:, None, None] * SY
    return 1j * np.pi * nu[:, None, None] * 1e-3 * axis


def propagate(tau: np.ndarray, steps: int) -> np.ndarray:
    h = tau / steps
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(tau), 2, 2)).copy()
    hh = h[:, None, None]
    for k in range(steps):
        t = k * h
        k1 = _generator(t, tau) @ u
        g_mid = _generator(t + 0.5 * h, tau)
        k2 = g_mid @ (u + 0.5 * hh * k1)
        k3 = g_mid @ (u + 0.5 * hh * k2)
        k4 = _generator(t + h, tau) @ (u + hh * k3)
        u = u + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def transition_probability(u: np.ndarray) -> np.ndarray:
    """Mean of |<e_f|U|g_i>|^2 and |<g_f|U|e_i>|^2.  H_i ~ -sigma_x and
    H_f ~ -sigma_y, so the ground states are their +1 eigenvectors."""
    g_i = np.array([1, 1]) / np.sqrt(2)
    e_i = np.array([1, -1]) / np.sqrt(2)
    g_f = np.array([1, 1j]) / np.sqrt(2)
    e_f = np.array([1, -1j]) / np.sqrt(2)
    up = np.abs(np.einsum("i,nij,j->n", e_f.conj(), u, g_i)) ** 2
    down = np.abs(np.einsum("i,nij,j->n", g_f.conj(), u, e_i)) ** 2
    return 0.5 * (up + down)


def main() -> None:
    tau = np.array(DEFAULT_TAU_GRID_US)
    coarse = transition_probability(propagate(tau, STEPS))
    fine = transition_probability(propagate(tau, 2 * STEPS))
    rows = [
        {"tau_us": float(t), "transition_prob": float(p), "error_estimate": float(abs(p - c))}
        for t, p, c in zip(tau, fine, coarse)
    ]
    payload = {
        "nu_initial_khz": DEFAULT_NU_KHZ[0],
        "nu_final_khz": DEFAULT_NU_KHZ[1],
        "method": f"fixed-step RK4, {2 * STEPS} steps; error_estimate = |P(2N) - P(N)|",
        "rows": rows,
    }
    out = Path(__file__).with_name("tau_reference.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
