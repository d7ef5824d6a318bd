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

so a chiral chain (v_dl = v_ul = 0) has exactly zero backflow.  Only the
output ports are returned: t_N, tt_N, r_1 and rt_1.

M splits into its diagonal and the coupling block C (the off-diagonal
waveguide couplings with their phases, plus J; C_jj = 0).  At carrier
phases C does not depend on delta, so C and its absolute row sums are built
once per call (once per chain, for ``_solve_chains``) and every stack copies
C in and writes its own diagonal; with delta-dependent phases they are
built once per stack, from that stack's phases.  Points are solved as
stacks of at most ``STACK_ELEMENTS`` complex matrix elements, which bounds
the memory of one stacked solve, into one ``TransportSolution`` of arrays
over the points.  Each point's
backward error takes ||M||_inf = max_j (sum_k |C_jk| + |M_jj|), O(N) per
point.  One check per stack accepts each point, solved and flux-balanced,
or raises the SolverError of the first that fails, in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix
from .params import POLE_REGULARIZATION, SystemConfig

#: Accepted solves must have a backward error below this bound.
RESIDUAL_LIMIT = 1e-10

#: Accepted points must have loss >= -FLUX_TOLERANCE.  The worst loss of
#: lossless chains solved at and near their collective modes was -5.1e-8
#: (N = 100 symmetric); validated up to N = 100 only.
FLUX_TOLERANCE = 1e-5

#: Accepted points must have |loss - sum_j gamma_j |A_j|^2| <= FLUX_IDENTITY_LIMIT * s,
#: s = 1 + sum_j Gamma_j |A_j|^2 with Gamma_j the emitter's total rate.  The
#: worst measured was 1.2e-14 * s (N = 100 symmetric lossless, at its
#: collective modes); validated up to N = 100 only.
FLUX_IDENTITY_LIMIT = 1e-10

#: Complex elements per stacked N x N solve; bounds a batch's memory.
STACK_ELEMENTS = 2**14

INTENSITY_KEYS = ("T", "R", "Tt", "Rt", "loss")

_CHANNELS = ("gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")


class SolverError(RuntimeError):
    """Raised for a detuning whose transport system is singular
    (condition inf), near-singular (backward error above ``RESIDUAL_LIMIT``;
    condition from ``np.linalg.cond``), solves to non-finite amplitudes or
    intensities, has a matrix norm beyond the float range, or violates the
    flux balance (loss below ``-FLUX_TOLERANCE``, or not the power the
    emitters radiate, sum_j gamma_j |A_j|^2, to ``FLUX_IDENTITY_LIMIT``); no
    condition estimate for the last three.  Carries ``delta`` and
    ``condition``."""

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
    """Emitter amplitudes ``a``, the amplitudes at the four output ports
    (``t`` and ``r`` of the lower waveguide, ``tt`` and ``rt`` of the upper),
    port intensities (see ``port_intensities``) and the backward error of
    the reduced solve.

    From ``solve_spectrum_point_batch`` ``a`` has shape (P, N) and every
    other array (P,); ``solve_transport`` returns one point: ``a`` of shape
    (N,), a float ``delta`` and scalars elsewhere.
    """

    delta: np.ndarray
    a: np.ndarray
    t: np.ndarray
    r: np.ndarray
    tt: np.ndarray
    rt: np.ndarray
    intensities: dict[str, np.ndarray]
    residual: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail their point
def solve_spectrum_point_batch(
    config: SystemConfig, ddi: DdiMatrix, deltas: Sequence[float] | np.ndarray
) -> TransportSolution:
    """Solve every detuning of a 1-D list, in input order.

    Detunings are stacked into direct solves of at most ``STACK_ELEMENTS``
    matrix elements each; a singular stack is re-solved point by point.
    Raises the SolverError of the first failing detuning in input order,
    named by the first check it fails: singular, non-finite solution, matrix
    norm beyond the float range, backward error above ``RESIDUAL_LIMIT``,
    non-finite intensities, flux balance (see ``SolverError``).
    """
    n = config.n_emitters
    if ddi.n != n:
        raise ValueError(f"coupling matrix is {ddi.n}x{ddi.n} for {n} emitters")
    deltas = np.asarray(deltas, dtype=float)
    steps = np.asarray(config.step_phase(deltas))[None]
    return _solve_chains(config, deltas, steps, ddi.values[None])


def _per_point(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Per-chain ``values`` at each point of a stack, given each point's chain:
    a view of that chain's entry when the stack lies in one chain."""
    return values[chain[0]] if chain[0] == chain[-1] else values.take(chain, axis=0)


def _solve_chains(
    config: SystemConfig, deltas: np.ndarray, steps: np.ndarray, couplings: np.ndarray
) -> TransportSolution:
    """The solver core: C chains that share the config's N, rates and
    detuning list (P,) but each have their own step phase and coupling
    matrix, as the spacings of a separation sweep do.

    ``steps`` is (C,) at carrier phases or (C, P) with delta-dependent
    phases; ``couplings`` is (C, N, N).  Points run chain-major, point
    c * P + p being chain c at ``deltas[p]``; failures are raised as in
    ``solve_spectrum_point_batch``, over that order.  Callers hold
    ``np.errstate(over="ignore", invalid="ignore")``, as
    out-of-range values fail their point.
    """
    n = config.n_emitters
    flat = np.tile(deltas, len(couplings))
    chains = np.arange(len(couplings)).repeat(deltas.size)

    # Detuning-independent parts: the channel couplings v = sqrt(rate), their
    # products below and above the diagonal, and the total rates Gamma_j.
    gamma = config.rate_profile("gamma")
    if config.regularize:
        gamma = gamma + POLE_REGULARIZATION
    rates = np.array([config.rate_profile(name) for name in _CHANNELS])
    v_dr, v_dl, v_ur, v_ul = np.sqrt(rates)
    rightward = np.tril(np.outer(v_dr, v_dr) + np.outer(v_ur, v_ur), -1)
    leftward = np.triu(np.outer(v_dl, v_dl) + np.outer(v_ul, v_ul), 1)
    total = gamma + rates.sum(axis=0)
    width = 0.5j * total
    diagonal = np.arange(n)

    # Carrier phases build one C per chain (with the first stack), which each
    # stack takes per point; delta-dependent phases build one per stack.
    shared = steps.ndim == 1
    steps = steps.ravel()

    a = np.empty((flat.size, n), dtype=complex)
    t, r, tt, rt = np.empty((4, flat.size), dtype=complex)
    residual = np.empty(flat.size)
    power = np.empty((len(INTENSITY_KEYS), flat.size))  # one row per intensity
    size = max(1, STACK_ELEMENTS // n**2)
    for start in range(0, flat.size, size):
        stack = slice(start, start + size)
        chain = chains[stack]
        if start == 0 or not shared:
            exchange = couplings if shared else _per_point(couplings, chain)
            phases = np.exp(1j * np.outer(steps if shared else steps[stack], diagonal))
            relative = phases[:, :, None] * phases.conj()[:, None, :]
            block = -1j * (rightward * relative + leftward * relative.conj()) + exchange
            row_sums = np.abs(block).sum(axis=2)  # C_jj = 0: the off-diagonal sums
        on_diagonal = -flat[stack, None] - width
        if shared:
            matrices = block.take(chain, axis=0)
            stack_phases, sums = _per_point(phases, chain), _per_point(row_sums, chain)
        else:
            matrices, stack_phases, sums = block, phases, row_sums
        matrices[:, diagonal, diagonal] = on_diagonal
        rhs = np.broadcast_to(-(v_dr * stack_phases)[..., None], (len(matrices), n, 1))
        singular = None
        try:
            x = np.linalg.solve(matrices, rhs)
        except np.linalg.LinAlgError:
            # Re-solve point by point up to the first singular system; the
            # points after it stay NaN and so fail after it.
            x = np.full_like(rhs, np.nan)
            for i in range(len(x)):
                try:
                    x[i] = np.linalg.solve(matrices[i], rhs[i])
                except np.linalg.LinAlgError:
                    singular = i
                    break

        # Normwise backward error; a zero scale means b = 0 and x = 0, so the
        # defect itself is the residual.  An inf norm bounds nothing: it fails.
        defect = np.abs(matrices @ x - rhs).max(axis=(1, 2))
        # ||M||_inf = max_j (sum_k |C_jk| + |M_jj|), O(N) per point.
        norm = (sums + np.abs(on_diagonal)).max(axis=1)
        norm_ax = norm * np.abs(x).max(axis=(1, 2))
        scale = norm_ax + np.abs(rhs).max(axis=(1, 2))
        residual[stack] = np.divide(defect, scale, out=defect, where=scale > 0.0)
        a[stack] = x[..., 0]
        forward = stack_phases.conj() * a[stack]
        backward = stack_phases * a[stack]
        # cumsum's last column, not np.sum: the same additions, so the same bits.
        t[stack] = 1.0 - 1j * np.cumsum(v_dr * forward, axis=1)[:, -1]
        tt[stack] = -1j * np.cumsum(v_ur * forward, axis=1)[:, -1]
        r[stack] = -1j * np.cumsum((v_dl * backward)[:, ::-1], axis=1)[:, -1]
        rt[stack] = -1j * np.cumsum((v_ul * backward)[:, ::-1], axis=1)[:, -1]
        ports = port_intensities(t[stack], r[stack], tt[stack], rt[stack])
        power[:, stack] = list(ports.values())
        # The one acceptance check.  Flux balance: loss >= -tol (which also
        # fails a NaN or -inf loss), and loss is the power the emitters
        # radiate, to within a finite bound.
        loss = power[-1, stack]
        weight = np.abs(a[stack]) ** 2
        bound = FLUX_IDENTITY_LIMIT * (1.0 + weight @ total)
        identity = (np.abs(loss - weight @ gamma) <= bound) & np.isfinite(bound)
        balanced = (loss >= -FLUX_TOLERANCE) & identity
        accepted = (residual[stack] <= RESIDUAL_LIMIT) & np.isfinite(norm)
        failed = np.flatnonzero(~(accepted & balanced))
        if failed.size:
            i = failed[0]
            delta = float(flat[start + i])
            if i == singular:
                raise SolverError("singular transport system", delta, np.inf)
            if not np.isfinite(x[i]).all():
                raise SolverError("non-finite solution of the transport system", delta)
            if not np.isfinite(norm[i]):
                raise SolverError("transport system beyond the float range", delta)
            if not accepted[i]:
                raise SolverError(
                    "near-singular transport system", delta, np.linalg.cond(matrices[i])
                )
            if not np.isfinite(loss[i]):  # as soon as one intensity is
                raise SolverError("non-finite solution of the transport system", delta)
            raise SolverError(f"flux balance violated (loss {loss[i]:.3g})", delta)

    intensities = dict(zip(INTENSITY_KEYS, power))
    return TransportSolution(flat, a, t, r, tt, rt, intensities, residual)


def solve_transport(
    config: SystemConfig, ddi: DdiMatrix, delta: float
) -> TransportSolution:
    """Point 0 of a one-point ``solve_spectrum_point_batch``.

    Raises SolverError at (or numerically indistinguishable from) the
    isolated real poles a lossless chain can develop, like every solve;
    scans are expected to step around them or request regularization.
    """
    batch = solve_spectrum_point_batch(config, ddi, [delta])
    return TransportSolution(
        float(batch.delta[0]), batch.a[0], batch.t[0], batch.r[0], batch.tt[0],
        batch.rt[0], {key: float(value[0]) for key, value in batch.intensities.items()},
        float(batch.residual[0]),
    )
