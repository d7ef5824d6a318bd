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

import dataclasses

import numpy as np

from photon_router import DdiMatrix, SystemConfig


def assemble_system(
    config: SystemConfig, ddi: DdiMatrix, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build the 5N x 5N matrix and right-hand side at one detuning."""
    n = config.n_emitters
    if ddi.n != n:
        raise ValueError(f"coupling matrix is {ddi.n}x{ddi.n} for {n} emitters")

    gamma = config.rate_profile("gamma")
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


def segment_amplitudes(
    config: SystemConfig, deltas: np.ndarray, a: np.ndarray
) -> dict[str, np.ndarray]:
    """Field amplitudes t, r, tt, rt in every segment, shape (P, N), from the
    emitter amplitudes ``a`` (P, N) at ``deltas`` (P,) of a batched solve.

    The cumulative sums of the ``photon_router.scattering`` docstring, in the
    solver's order of operations, so the solver's ports equal the last (t, tt)
    or first (r, rt) segment bit for bit.
    """
    deltas = np.asarray(deltas, dtype=float)
    step = np.broadcast_to(config.step_phase(deltas), deltas.shape)
    phases = np.exp(1j * np.outer(step, np.arange(config.n_emitters)))
    v_dr, v_dl, v_ur, v_ul = (
        np.sqrt(config.rate_profile(name))
        for name in ("gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")
    )
    forward, backward = phases.conj() * a, phases * a
    return {
        "t": 1.0 - 1j * np.cumsum(v_dr * forward, axis=1),
        "r": -1j * np.cumsum((v_dl * backward)[:, ::-1], axis=1)[:, ::-1],
        "tt": -1j * np.cumsum(v_ur * forward, axis=1),
        "rt": -1j * np.cumsum((v_ul * backward)[:, ::-1], axis=1)[:, ::-1],
    }


def _eliminated(config: SystemConfig, ddi: DdiMatrix):
    """The 5N system at carrier phases with its fields f eliminated:
    M0, b with M(delta) = M0 - delta I and M(delta) A = b, and f = f0 - G A."""
    n = config.n_emitters
    carrier = dataclasses.replace(config, delta_dependent_phases=False)
    matrix, rhs = assemble_system(carrier, ddi, 0.0)
    fields, emitters = matrix[: 4 * n], matrix[4 * n :]
    f0 = np.linalg.solve(fields[:, n:], rhs[: 4 * n])
    g = np.linalg.solve(fields[:, n:], fields[:, :n])
    return emitters[:, :n] - emitters[:, n:] @ g, rhs[4 * n :] - emitters[:, n:] @ f0, f0, g


def collective_modes(config: SystemConfig, ddi: DdiMatrix) -> np.ndarray:
    """Eigenvalues lambda_m of the chain's collective modes at carrier phases:
    the 5N system with its fields eliminated is M(delta) = M0 - delta I, and
    these are the eigenvalues of M0 (every amplitude has a pole at lambda_m)."""
    return np.linalg.eigvals(_eliminated(config, ddi)[0])


def pole_residues(config: SystemConfig, ddi: DdiMatrix, max_condition: float = 1e4):
    """The output ports as sums over the collective modes, at carrier phases.

    With M0 = V Lambda V^-1 (see ``collective_modes``), A = V (w / (lambda - delta)),
    w = V^-1 b, and each port is p(delta) = p0 + sum_m rho_m / (lambda_m - delta),
    rho_m = (c V)_m w_m, with c the port's row of -G.  For t that is
    t = 1 + i sum_m (v_dr e^{-i phi} V)_m (V^-1 v_dr e^{+i phi})_m / (lambda_m - delta).
    Returns lambda (N,), and p0 (4,) and rho (4, N) for the ports t, r, tt,
    rt in that order; None where cond(V) exceeds ``max_condition``, as the
    sum loses accuracy with it and a defective M0 (identical chiral emitters
    without DDI: one Jordan block) has no basis of modes at all.
    """
    n = config.n_emitters
    m0, b, f0, g = _eliminated(config, ddi)
    lam, vecs = np.linalg.eig(m0)
    if not (np.isfinite(vecs).all() and np.linalg.cond(vecs) <= max_condition):
        return None
    ports = [n - 1, n, 3 * n - 1, 3 * n]  # t_N, r_1, tt_N, rt_1 among [t, r, tt, rt]
    return lam, f0[ports], -(g[ports] @ vecs) * np.linalg.solve(vecs, b)
