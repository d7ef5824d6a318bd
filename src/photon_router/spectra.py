"""Detuning scans, peak extraction, separation sweeps and chain-length
scaling: the machinery that turns single-point solves into spectra."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ddi import DdiMatrix, ddi_matrix
from .params import SystemConfig, validate
from .scattering import (
    INTENSITY_KEYS,
    SolverError,
    solve_spectrum_point_batch,
    solve_transport,
)

#: Peak locations are refined until stable to this width, Gamma0 units.
PEAK_REFINE_TOL = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_FAILED_ROW = dict.fromkeys(INTENSITY_KEYS, np.nan)


@dataclass(frozen=True)
class Peak:
    channel: str
    location: float
    height: float
    refined: bool


@dataclass
class SpectrumResult:
    """Per-detuning intensities of one scan.

    ``intensities`` maps each of T/R/Tt/Rt/loss to an array aligned with
    ``deltas``; failed points hold NaN rows and their SolverErrors, which
    carry the detuning, are listed in ``failures``.
    """

    deltas: np.ndarray
    intensities: dict[str, np.ndarray]
    peaks: list[Peak] = field(default_factory=list)
    failures: list[SolverError] = field(default_factory=list)


@dataclass(frozen=True)
class ScalingRecord:
    """Routing figures of merit for one chain length.

    tt_max is the refined maximum of the routed intensity, located at
    delta_star; t_min is the smallest lower-waveguide transmission seen in
    the search window and t_bar_min the transmission at delta_star itself.
    """

    n: int
    tt_max: float
    delta_star: float
    t_min: float
    t_bar_min: float
    loss_at_peak: float


@dataclass(frozen=True)
class ScalingReport:
    records: tuple[ScalingRecord, ...]
    window: tuple[float, float, int]  # search grid: min, max, points


@dataclass(frozen=True)
class SeparationSweep:
    """Routed (tt) and transmitted (t) intensity over (spacing, detuning)."""

    spacings: np.ndarray
    deltas: np.ndarray
    routed: np.ndarray        # shape (len(spacings), len(deltas))
    transmitted: np.ndarray


def scan(
    config: SystemConfig, ddi: DdiMatrix, grid: Sequence[float] | np.ndarray
) -> SpectrumResult:
    """Batch-solve a monotone detuning grid into a spectrum."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if grid.size > 1:
        steps = np.diff(grid)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("grid must be strictly monotone")

    results = solve_spectrum_point_batch(config, ddi, grid)
    failures = [item for item in results if isinstance(item, SolverError)]
    rows = [
        _FAILED_ROW if isinstance(item, SolverError) else item.intensities
        for item in results
    ]
    intensities = {key: np.array([row[key] for row in rows]) for key in INTENSITY_KEYS}
    return SpectrumResult(deltas=grid, intensities=intensities, failures=failures)


def _plateau_maxima(values: np.ndarray) -> list[int]:
    """Indices of interior local maxima; a plateau reports its left edge."""
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


def _golden_maximize(
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


def _refine_maximum(
    x: np.ndarray, y: np.ndarray, i: int, evaluate: Callable[[float], float]
) -> tuple[float, float]:
    """Polish grid maximum i: parabolic vertex, then golden-section solves.

    Never returns a height below the grid sample; ties in height resolve
    toward smaller detuning.
    """
    lo, hi = x[i - 1], x[i + 1]
    candidates = [(y[i], -x[i])]
    curvature = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if curvature < 0.0:
        h = 0.5 * (hi - lo)
        vertex = x[i] + 0.5 * h * (y[i - 1] - y[i + 1]) / curvature
        vertex = min(max(vertex, lo), hi)
        candidates.append((evaluate(vertex), -vertex))
    location, height = _golden_maximize(evaluate, lo, hi, PEAK_REFINE_TOL)
    candidates.append((height, -location))
    best = max(candidates)
    return -best[1], best[0]


def _channel_evaluator(
    config: SystemConfig, ddi: DdiMatrix, channel: str
) -> Callable[[float], float]:
    def evaluate(delta: float) -> float:
        return solve_transport(config, ddi, delta).intensities[channel]

    return evaluate


def find_peaks(
    result: SpectrumResult,
    channel: str,
    refine: bool = False,
    config: SystemConfig | None = None,
    ddi: DdiMatrix | None = None,
) -> list[Peak]:
    """Local maxima of one channel, sorted by location.

    Refinement re-solves the transport problem off-grid, so it needs the
    config and coupling matrix that produced the scan.
    """
    if result.deltas.size == 0:
        raise ValueError("empty grid")
    if channel not in result.intensities:
        raise KeyError(f"unknown channel {channel!r}")
    if refine and (config is None or ddi is None):
        raise ValueError("refinement requires config and ddi for fresh solves")

    x, y = result.deltas, result.intensities[channel]
    peaks = []
    evaluate = _channel_evaluator(config, ddi, channel) if refine else None
    for i in _plateau_maxima(y):
        if refine:
            location, height = _refine_maximum(x, y, i, evaluate)
        else:
            location, height = float(x[i]), float(y[i])
        peaks.append(
            Peak(channel=channel, location=location, height=height, refined=refine)
        )
    peaks.sort(key=lambda p: p.location)
    return peaks


def sweep_separation(
    config: SystemConfig,
    l_range: tuple[float, float],
    l_points: int,
    grid: Sequence[float] | np.ndarray,
) -> SeparationSweep:
    """Re-solve the full spectrum for each inter-emitter separation.

    Each column rebuilds the propagation phases and the coupling matrix for
    its spacing, so a one-point sweep is bit-identical to a plain scan.
    """
    l_min, l_max = l_range
    if l_min <= 0.0 or l_max <= 0.0:
        raise ValueError(f"spacing must be positive, got range {l_range}")
    if l_min > l_max:
        raise ValueError(f"empty spacing range {l_range}")
    if l_max >= config.lambda_qd:
        raise ValueError(
            f"spacing {l_max} exceeds the transition wavelength {config.lambda_qd}"
        )
    if l_points < 1:
        raise ValueError(f"l_points must be >= 1, got {l_points}")

    spacings = np.linspace(l_min, l_max, l_points)
    grid = np.asarray(grid, dtype=float)
    routed = np.empty((l_points, grid.size))
    transmitted = np.empty((l_points, grid.size))
    for k, spacing in enumerate(spacings):
        cfg = validate(dataclasses.replace(config, spacing=float(spacing)))
        result = scan(cfg, ddi_matrix(cfg), grid)
        routed[k] = result.intensities["Tt"]
        transmitted[k] = result.intensities["T"]
    return SeparationSweep(
        spacings=spacings, deltas=grid, routed=routed, transmitted=transmitted
    )


def scale_emitters(
    config: SystemConfig,
    n_list: Sequence[int],
    grid: Sequence[float] | np.ndarray,
) -> ScalingReport:
    """Routing figures of merit as a function of chain length.

    For each N the chain and its coupling matrix are rebuilt, the grid is
    scanned, and the routed-intensity maximum is refined off-grid.  The
    refined sample participates in the transmission minimum so the reported
    t_bar_min >= t_min ordering is structural.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be non-empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {n_list}")

    grid = np.asarray(grid, dtype=float)
    records = []
    for n in n_list:
        cfg = validate(dataclasses.replace(config, n_emitters=int(n)))
        ddi = ddi_matrix(cfg)
        result = scan(cfg, ddi, grid)
        routed = result.intensities["Tt"]
        i = int(np.nanargmax(routed))
        evaluate = _channel_evaluator(cfg, ddi, "Tt")
        if 0 < i < grid.size - 1:
            delta_star, _ = _refine_maximum(grid, routed, i, evaluate)
        else:
            delta_star = float(grid[i])
        at_peak = solve_transport(cfg, ddi, delta_star).intensities
        records.append(
            ScalingRecord(
                n=int(n),
                tt_max=at_peak["Tt"],
                delta_star=delta_star,
                t_min=min(float(np.nanmin(result.intensities["T"])), at_peak["T"]),
                t_bar_min=at_peak["T"],
                loss_at_peak=at_peak["loss"],
            )
        )
    return ScalingReport(
        records=tuple(records),
        window=(float(grid[0]), float(grid[-1]), int(grid.size)),
    )
