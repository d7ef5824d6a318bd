"""Frozen reference solver for the correctness gate.

A self-contained copy of the dense 5N transport solve (and the free-space
dipole-dipole coupling it needs) as it stood when the benchmark was written.
It imports nothing from ``photon_router``, so a change to the package cannot
change the numbers the gate compares against.  It covers the configs the
benchmark workloads use: scalar rates, ``ddi_mode`` "auto" or "off", and
carrier or detuning-dependent propagation phases.

Unknowns are ordered [A, t, r, tt, rt], N each; the photon enters the lower
waveguide moving right (t_0 = 1).
"""

from __future__ import annotations

import math

import numpy as np

_SPEED_OF_LIGHT_NM_S = 2.99792458e17


def _coupling(separation: float, dipole_angle: float) -> float:
    c, s = math.cos(separation), math.sin(separation)
    r = separation
    transverse = c / r**3 + s / r**2 - c / r
    tilt = c / r - 3.0 * c / r**3 - 3.0 * s / r**2
    return 0.75 * (transverse + math.cos(dipole_angle) ** 2 * tilt)


def ddi_values(config: dict) -> np.ndarray:
    """All-to-all coupling matrix, Gamma0 units."""
    n = config["n_emitters"]
    values = np.zeros((n, n))
    mode = config.get("ddi_mode", "auto")
    if mode not in ("auto", "off"):
        raise ValueError(f"oracle does not cover ddi_mode {mode!r}")
    if mode == "auto" and n > 1:
        step = 2.0 * math.pi * config["spacing"] / config["lambda_qd"]
        angle = config.get("dipole_angle", math.pi / 2)
        for k in range(1, n):
            idx = np.arange(n - k)
            values[idx, idx + k] = values[idx + k, idx] = _coupling(k * step, angle)
    return values


def _step_phase(config: dict, delta: float) -> float:
    theta = 2.0 * math.pi * config["spacing"] / config["lambda_sp"]
    if not config.get("delta_dependent_phases", False):
        return theta
    carrier_hz = _SPEED_OF_LIGHT_NM_S / config["lambda_qd"]
    return theta * (1.0 + delta * config.get("gamma0_mhz", 7.5) * 1e6 / carrier_hz)


def intensities(config: dict, delta: float, ddi: np.ndarray | None = None) -> dict:
    """Port intensities T, R, Tt, Rt and loss at one detuning."""
    n = config["n_emitters"]
    if ddi is None:
        ddi = ddi_values(config)
    rate = {k: float(config.get(k, 0.0)) for k in ("gamma", "gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")}
    gamma = np.full(n, rate["gamma"])
    v_dr, v_dl, v_ur, v_ul = (
        np.full(n, math.sqrt(rate[k])) for k in ("gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")
    )
    phi = np.arange(n) * _step_phase(config, delta)
    fwd, bwd = np.exp(1j * phi), np.exp(-1j * phi)

    a0, t0, r0, tt0, rt0 = 0, n, 2 * n, 3 * n, 4 * n
    j = np.arange(n)
    m = np.zeros((5 * n, 5 * n), dtype=complex)
    rhs = np.zeros(5 * n, dtype=complex)

    # Rightward channels: field_j - field_{j-1} + i v e^{-i phi_j} A_j = 0.
    for rows, f0, v in ((j, t0, v_dr), (2 * n + j, tt0, v_ur)):
        m[rows, f0 + j] = 1.0
        m[rows[1:], f0 + j[:-1]] = -1.0
        m[rows, a0 + j] = 1j * v * bwd
    rhs[0] = 1.0
    # Leftward channels: field_{j+1} - field_j - i v e^{+i phi_j} A_j = 0.
    for rows, f0, v in ((n + j, r0, v_dl), (3 * n + j, rt0, v_ul)):
        m[rows[:-1], f0 + j[1:]] = 1.0
        m[rows, f0 + j] = -1.0
        m[rows, a0 + j] = -1j * v * fwd

    rows = 4 * n + j
    for f0, v in ((t0, v_dr), (tt0, v_ur)):
        m[rows, f0 + j] += 0.5 * v * fwd
        m[rows[1:], f0 + j[:-1]] += 0.5 * v[1:] * fwd[1:]
    for f0, v in ((r0, v_dl), (rt0, v_ul)):
        m[rows[:-1], f0 + j[1:]] += 0.5 * v[:-1] * bwd[:-1]
        m[rows, f0 + j] += 0.5 * v * bwd
    rhs[4 * n] = -0.5 * v_dr[0] * fwd[0]
    m[rows, a0 + j] = -(delta + 0.5j * gamma)
    m[4 * n :, a0 : a0 + n] += ddi

    x = np.linalg.solve(m, rhs)
    t, r, tt, rt = (x[k * n : (k + 1) * n] for k in range(1, 5))
    out = {"T": abs(t[-1]) ** 2, "R": abs(r[0]) ** 2, "Tt": abs(tt[-1]) ** 2, "Rt": abs(rt[0]) ** 2}
    out["loss"] = 1.0 - out["T"] - out["R"] - out["Tt"] - out["Rt"]
    return out


def plateau_maxima(values) -> list[int]:
    """Indices of interior local maxima of a sampled spectrum; a plateau
    reports its left edge (the peak finder's rule when the benchmark was
    written)."""
    idx: list[int] = []
    n = len(values)
    i = 1
    while i < n - 1:
        if not values[i] > values[i - 1]:
            i += 1
            continue
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if j + 1 < n and values[j + 1] < values[i]:
            idx.append(i)
        i = j + 1
    return idx
