"""Scalar reference for peak refinement: one grid maximum at a time, one
single-detuning solve per probe, through a callable.

``spectra._refine_maxima`` probes every bracket in each solver call, some
steps ahead; it must reproduce this reference bit for bit, probe points and
tie rules included.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

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
