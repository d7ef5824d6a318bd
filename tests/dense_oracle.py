"""Independent 5N x 5N oracle for the batched solver.

The piecewise-plane-wave ansatz, before the field amplitudes are eliminated,
is a dense complex linear system of size 5N.  Unknowns are ordered
[A_1..A_N, t_1..t_N, r_1..r_N, tt_1..tt_N, rt_1..rt_N]: emitter excitation
amplitudes, then the four field amplitudes per segment of the lower (t, r)
and upper (tt, rt) waveguides.  The photon enters the lower waveguide moving
right (t_0 = 1); all other inputs vanish, so r_{N+1} = tt_0 = rt_{N+1} = 0.

Per emitter j (phase phi_j = (j-1)*Theta, amplitude coupling v = sqrt(rate)):

    t_j  - t_{j-1}  + i v_dr e^{-i phi_j} A_j = 0
    r_{j+1} - r_j   - i v_dl e^{+i phi_j} A_j = 0
    tt_j - tt_{j-1} + i v_ur e^{-i phi_j} A_j = 0
    rt_{j+1} - rt_j - i v_ul e^{+i phi_j} A_j = 0
    (v_dr/2) e^{+i phi_j}(t_j + t_{j-1}) + (v_dl/2) e^{-i phi_j}(r_{j+1} + r_j)
      + (v_ur/2) e^{+i phi_j}(tt_j + tt_{j-1}) + (v_ul/2) e^{-i phi_j}(rt_{j+1} + rt_j)
      - (delta + i gamma_j/2) A_j + sum_{i != j} J_ij A_i = 0
"""

from __future__ import annotations

import numpy as np

from photon_router import DdiMatrix, SystemConfig
from photon_router.params import POLE_REGULARIZATION


def assemble_system(
    config: SystemConfig, ddi: DdiMatrix, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build the 5N x 5N matrix and right-hand side at one detuning."""
    n = config.n_emitters
    if ddi.n != n:
        raise ValueError(f"coupling matrix is {ddi.n}x{ddi.n} for {n} emitters")

    gamma = config.rate_profile("gamma")
    if config.regularize:
        gamma = gamma + POLE_REGULARIZATION
    v_dr = np.sqrt(config.rate_profile("gamma_dr"))
    v_dl = np.sqrt(config.rate_profile("gamma_dl"))
    v_ur = np.sqrt(config.rate_profile("gamma_ur"))
    v_ul = np.sqrt(config.rate_profile("gamma_ul"))

    phi = np.arange(n) * config.step_phase(delta)
    forward = np.exp(1j * phi)
    backward = np.exp(-1j * phi)

    a0, t0, r0, tt0, rt0 = 0, n, 2 * n, 3 * n, 4 * n
    j = np.arange(n)
    matrix = np.zeros((5 * n, 5 * n), dtype=complex)
    rhs = np.zeros(5 * n, dtype=complex)

    # Lower waveguide, rightward: t_j - t_{j-1} + i v_dr e^{-i phi} A_j = 0.
    rows = j
    matrix[rows, t0 + j] = 1.0
    matrix[rows[1:], t0 + j[:-1]] = -1.0
    matrix[rows, a0 + j] = 1j * v_dr * backward
    rhs[0] = 1.0  # t_0 = 1 (input photon)

    # Lower waveguide, leftward: r_{j+1} - r_j - i v_dl e^{+i phi} A_j = 0.
    rows = n + j
    matrix[rows[:-1], r0 + j[1:]] = 1.0
    matrix[rows, r0 + j] = -1.0
    matrix[rows, a0 + j] = -1j * v_dl * forward

    # Upper waveguide, rightward: tt_j - tt_{j-1} + i v_ur e^{-i phi} A_j = 0.
    rows = 2 * n + j
    matrix[rows, tt0 + j] = 1.0
    matrix[rows[1:], tt0 + j[:-1]] = -1.0
    matrix[rows, a0 + j] = 1j * v_ur * backward

    # Upper waveguide, leftward: rt_{j+1} - rt_j - i v_ul e^{+i phi} A_j = 0.
    rows = 3 * n + j
    matrix[rows[:-1], rt0 + j[1:]] = 1.0
    matrix[rows, rt0 + j] = -1.0
    matrix[rows, a0 + j] = -1j * v_ul * forward

    # Emitter rows: field drive balances the detuned, damped excitation.
    rows = 4 * n + j
    matrix[rows, t0 + j] += 0.5 * v_dr * forward
    matrix[rows[1:], t0 + j[:-1]] += 0.5 * v_dr[1:] * forward[1:]
    rhs[4 * n] = -0.5 * v_dr[0] * forward[0]  # t_0 = 1 moved to the rhs
    matrix[rows[:-1], r0 + j[1:]] += 0.5 * v_dl[:-1] * backward[:-1]
    matrix[rows, r0 + j] += 0.5 * v_dl * backward
    matrix[rows, tt0 + j] += 0.5 * v_ur * forward
    matrix[rows[1:], tt0 + j[:-1]] += 0.5 * v_ur[1:] * forward[1:]
    matrix[rows[:-1], rt0 + j[1:]] += 0.5 * v_ul[:-1] * backward[:-1]
    matrix[rows, rt0 + j] += 0.5 * v_ul * backward
    matrix[rows, a0 + j] = -(delta + 0.5j * gamma)
    matrix[4 * n :, a0 : a0 + n] += ddi.values

    return matrix, rhs


def solve_dense(
    config: SystemConfig, ddi: DdiMatrix, delta: float
) -> dict[str, np.ndarray]:
    """Amplitudes a, t, r, tt, rt of the 5N system at one detuning."""
    x = np.linalg.solve(*assemble_system(config, ddi, delta))
    n = config.n_emitters
    keys = ("a", "t", "r", "tt", "rt")
    return {key: x[k * n : (k + 1) * n] for k, key in enumerate(keys)}
