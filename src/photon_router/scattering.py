"""Steady-state single-photon transport through the emitter chain.

The photon enters the lower waveguide moving right (t_0 = 1); all other
inputs vanish.  Eliminating the field amplitudes leaves N unknowns, the
emitter amplitudes A_j, in one complex N x N system per detuning delta
(phase phi_j = (j-1)*Theta(delta), amplitude coupling v = sqrt(rate)):

    M_jj = -delta - (i/2)(gamma_j + gamma_dr,j + gamma_dl,j + gamma_ur,j + gamma_ul,j)
    M_jk = -i (v_dr,j v_dr,k + v_ur,j v_ur,k) e^{+i(phi_j - phi_k)}   k < j
    M_jk = -i (v_dl,j v_dl,k + v_ul,j v_ul,k) e^{-i(phi_j - phi_k)}   k > j
    M += J (dipole-dipole coupling),    M A = -v_dr e^{i phi}

Rightward channels couple each emitter to those before it, leftward channels
to those after it.  The field amplitudes in each segment follow by
cumulative sums:

    t_j  = 1 - i sum_{k<=j} v_dr,k e^{-i phi_k} A_k
    tt_j =   - i sum_{k<=j} v_ur,k e^{-i phi_k} A_k
    r_j  =   - i sum_{k>=j} v_dl,k e^{+i phi_k} A_k
    rt_j =   - i sum_{k>=j} v_ul,k e^{+i phi_k} A_k

so a chiral chain (v_dl = v_ul = 0) has exactly zero backflow.  Detunings
are solved as stacks of these systems, each with its own phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix
from .params import POLE_REGULARIZATION, SystemConfig

#: Accepted solves must have a backward error below this bound.
RESIDUAL_LIMIT = 1e-10

#: Complex elements per stacked N x N solve; bounds a batch's memory.
STACK_ELEMENTS = 2**14

INTENSITY_KEYS = ("T", "R", "Tt", "Rt", "loss")

_CHANNELS = ("gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")


class SolverError(RuntimeError):
    """Raised when the transport system is singular or near-singular."""

    def __init__(self, message: str, delta: float, condition: float | None = None):
        self.delta = delta
        self.condition = condition
        detail = f"{message} at delta={delta:+.6g}"
        if condition is not None:
            detail += f" (condition estimate {condition:.3e})"
        super().__init__(detail)


def port_intensities(t, r, tt, rt) -> dict:
    """T, R, Tt, Rt = |t|^2, |r|^2, |tt|^2, |rt|^2 at the output ports and
    loss = 1 - T - R - Tt - Rt, the probability leaked to non-guided modes.
    Works element-wise on arrays of amplitudes."""
    power = [abs(amplitude) ** 2 for amplitude in (t, r, tt, rt)]
    loss = 1.0 - power[0] - power[1] - power[2] - power[3]
    return dict(zip(INTENSITY_KEYS, (*power, loss)))


@dataclass(frozen=True)
class TransportSolution:
    """Emitter and segment amplitudes at one detuning, plus the port
    intensities (see ``port_intensities``) and the backward error of the
    reduced solve."""

    delta: float
    a: np.ndarray
    t: np.ndarray
    r: np.ndarray
    tt: np.ndarray
    rt: np.ndarray
    intensities: dict[str, float]
    residual: float


def _reduced_system(
    config: SystemConfig, ddi: DdiMatrix, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked matrices M, right-hand sides, site phases e^{i phi_j} and
    channel couplings v (rows dr, dl, ur, ul) for a 1-D array of detunings."""
    n = config.n_emitters
    gamma = config.rate_profile("gamma")
    if config.regularize:
        gamma = gamma + POLE_REGULARIZATION
    rates = np.array([config.rate_profile(name) for name in _CHANNELS])
    v = np.sqrt(rates)
    v_dr, v_dl, v_ur, v_ul = v
    rightward = np.tril(np.outer(v_dr, v_dr) + np.outer(v_ur, v_ur), -1)
    leftward = np.triu(np.outer(v_dl, v_dl) + np.outer(v_ul, v_ul), 1)

    step = np.broadcast_to(config.step_phase(deltas), deltas.shape)
    phases = np.exp(1j * np.outer(step, np.arange(n)))
    relative = phases[:, :, None] * phases.conj()[:, None, :]
    matrices = -1j * (rightward * relative + leftward * relative.conj()) + ddi.values
    diagonal = np.arange(n)
    matrices[:, diagonal, diagonal] = (
        -deltas[:, None] - 0.5j * (gamma + rates.sum(axis=0))
    )
    rhs = -(v_dr * phases)[..., None]
    return matrices, rhs, phases, v


def _solve_stack(
    config: SystemConfig, ddi: DdiMatrix, deltas: np.ndarray
) -> list[TransportSolution | SolverError]:
    matrices, rhs, phases, v = _reduced_system(config, ddi, deltas)
    try:
        x = np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
        if deltas.size == 1:
            return [
                SolverError("singular transport system", float(deltas[0]), np.inf)
            ]
        # Re-solve point by point so only the singular points fail.
        return [
            item
            for i in range(deltas.size)
            for item in _solve_stack(config, ddi, deltas[i : i + 1])
        ]

    # Normwise backward error; a zero scale means b = 0 and x = 0, so the
    # defect itself (0, or NaN for non-finite x) is the residual.
    defect = np.abs(matrices @ x - rhs).max(axis=(1, 2))
    norm_ax = np.abs(matrices).sum(axis=2).max(axis=1) * np.abs(x).max(axis=(1, 2))
    scale = norm_ax + np.abs(rhs).max(axis=(1, 2))
    residual = np.divide(defect, scale, out=defect.copy(), where=scale > 0.0).tolist()

    a = x[..., 0]
    v_dr, v_dl, v_ur, v_ul = v
    forward = phases.conj() * a
    backward = phases * a
    t = 1.0 - 1j * np.cumsum(v_dr * forward, axis=1)
    tt = -1j * np.cumsum(v_ur * forward, axis=1)
    r = -1j * np.cumsum((v_dl * backward)[:, ::-1], axis=1)[:, ::-1]
    rt = -1j * np.cumsum((v_ul * backward)[:, ::-1], axis=1)[:, ::-1]
    ports = port_intensities(t[:, -1], r[:, 0], tt[:, -1], rt[:, 0])
    rows = zip(*(column.tolist() for column in ports.values()))
    finite = np.isfinite(a).all(axis=1)
    return [
        TransportSolution(
            delta, a[i], t[i], r[i], tt[i], rt[i], dict(zip(ports, row)), residual[i]
        )
        if residual[i] <= RESIDUAL_LIMIT
        else SolverError(
            "near-singular transport system", delta, np.linalg.cond(matrices[i])
        )
        if finite[i]
        else SolverError("non-finite solution of the transport system", delta)
        for i, (delta, row) in enumerate(zip(deltas.tolist(), rows))
    ]


def solve_spectrum_point_batch(
    config: SystemConfig, ddi: DdiMatrix, deltas: Sequence[float] | np.ndarray
) -> list[TransportSolution | SolverError]:
    """Solve every detuning of a 1-D list, in input order.

    Detunings are stacked into direct solves of at most ``STACK_ELEMENTS``
    matrix elements each.  A point whose system is singular, or whose
    backward error exceeds ``RESIDUAL_LIMIT``, contributes its SolverError
    in place of a solution; the other points are unaffected.
    """
    n = config.n_emitters
    if ddi.n != n:
        raise ValueError(f"coupling matrix is {ddi.n}x{ddi.n} for {n} emitters")
    deltas = np.asarray(deltas, dtype=float)
    size = max(1, STACK_ELEMENTS // n**2)
    return [
        item
        for start in range(0, deltas.size, size)
        for item in _solve_stack(config, ddi, deltas[start : start + size])
    ]


def solve_transport(
    config: SystemConfig, ddi: DdiMatrix, delta: float
) -> TransportSolution:
    """One detuning of ``solve_spectrum_point_batch``.

    Raises SolverError at (or numerically indistinguishable from) the
    isolated real poles a lossless chain can develop; scans are expected to
    step around them or request regularization.
    """
    (solution,) = solve_spectrum_point_batch(config, ddi, [delta])
    if isinstance(solution, SolverError):
        raise solution
    return solution
