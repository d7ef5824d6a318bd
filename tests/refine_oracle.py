"""References for peak refinement.

Scalar search: one grid maximum at a time, one single-detuning solve per
probe, through a callable.  ``spectra._refine_maxima`` probes every bracket
in each solver call, some steps ahead; it must reproduce this reference bit
for bit, probe points and tie rules included.

Two-pass bounds: ``intensity_errors`` forms each modal probe's residual
again from its amplitudes, with a second product by M0, and c_k^T V per
call; ``scattering._intensity_errors`` takes the residual from the solve's
own check and c_k^T V from the chain, and must give the same bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from photon_router.scattering import TransportSolution, _Chains, _row_max, _rows
from photon_router.spectra import PEAK_REFINE_TOL

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_maximize(
    evaluate: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] to bracket width tol."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = evaluate(c), evaluate(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = evaluate(d)
    best = max((fc, -c), (fd, -d))
    return -best[1], best[0]


def refine_maximum(
    x: np.ndarray, y: np.ndarray, i: int, evaluate: Callable[[float], float]
) -> tuple[float, float]:
    """Polish grid maximum i: parabolic vertex, then golden-section solves
    to ``PEAK_REFINE_TOL``, or to 64 ulps of the bracket's detunings where
    those are coarser.

    The bracket is the two grid neighbours in ascending detuning, whichever
    way the grid runs.  Never returns a height below the grid sample; ties
    in height resolve toward smaller detuning.
    """
    (lo, y_lo), (hi, y_hi) = sorted([(x[i - 1], y[i - 1]), (x[i + 1], y[i + 1])])
    candidates = [(y[i], -x[i])]
    curvature = y_lo - 2.0 * y[i] + y_hi
    if curvature < 0.0:
        h = 0.5 * (hi - lo)
        vertex = x[i] + 0.5 * h * (y_lo - y_hi) / curvature
        vertex = min(max(vertex, lo), hi)
        candidates.append((evaluate(vertex), -vertex))
    tol = max(PEAK_REFINE_TOL, 64.0 * np.spacing(max(abs(lo), abs(hi))))
    location, height = golden_maximize(evaluate, lo, hi, tol)
    candidates.append((height, -location))
    best = max(candidates)
    return -best[1], best[0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def intensity_errors(
    chains: _Chains, result: TransportSolution, channel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``scattering._intensity_errors`` in two passes: the residual
    r = b - (M0 A - delta A) from ``result.a`` by a product of its own, and
    c_k^T V formed here."""
    (phases,), (m0,), (sums,) = chains.carrier
    lam, vecs, inverse, _ = (part[0] for part in chains.modes)
    a, delta = result.a, result.delta[:, None]
    residual = -(chains.v_dr * phases) - (_rows(m0, a) - delta * a)
    forward, backward = -1j * phases.conj(), -1j * phases
    ports = np.array([chains.v_dr * forward, chains.v_dl * backward, chains.v_ur * forward,
                      chains.v_ul * backward, np.full(chains.n, np.nan)]) @ vecs  # c_k^T V
    adjoint = (ports[channel] / (lam - delta)) @ inverse  # g^T (P, N)
    amplitudes = np.array([result.t, result.r, result.tt, result.rt, result.t])  # loss: any
    port = amplitudes[channel, np.arange(len(a))]
    change = abs(port + (adjoint * residual).sum(axis=1)) ** 2 - abs(port) ** 2
    norm = sums.max() + abs(delta[:, 0]) + abs(chains.width).max()
    scale = norm * _row_max(abs(a)) + chains.v_dr.max()
    return change, 2.0 * abs(port) * abs(adjoint).sum(axis=1) * scale
