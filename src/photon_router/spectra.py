"""Detuning scans, peak extraction, separation sweeps and chain-length
scaling: the machinery that turns batched solves into spectra."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix, ddi_matrix
from .params import SystemConfig, validate
from .scattering import INTENSITY_KEYS, TransportSolution, solve_spectrum_point_batch

#: Peak locations are refined until stable to this width, Gamma0 units.
PEAK_REFINE_TOL = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Peak:
    channel: str
    location: float
    height: float
    refined: bool


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


def _check_monotone(grid: np.ndarray) -> None:
    """Raise unless the detuning grid is strictly monotone, in either direction."""
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("grid must be strictly monotone")


def scan(
    config: SystemConfig, ddi: DdiMatrix, grid: Sequence[float] | np.ndarray
) -> TransportSolution:
    """Batch-solve a monotone detuning grid into the solver's
    TransportSolution; the first grid point that fails raises its SolverError."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    _check_monotone(grid)
    return solve_spectrum_point_batch(config, ddi, grid)


def _plateau_maxima(deltas: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of interior local maxima; a plateau reports its edge with
    the smaller detuning, on either grid direction."""
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
            idx.append(i if deltas[i] < deltas[j] else j)
        i = j + 1
    return idx


def _probe(config: SystemConfig, ddi: DdiMatrix, deltas: np.ndarray) -> np.ndarray:
    """One row of intensities (columns in ``INTENSITY_KEYS`` order) per
    detuning, from one batched solve."""
    solution = solve_spectrum_point_batch(config, ddi, deltas)
    return np.column_stack([solution.intensities[key] for key in INTENSITY_KEYS])


def _refine_maxima(
    config: SystemConfig,
    ddi: DdiMatrix,
    result: TransportSolution,
    seeds: list[tuple[str, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polish interior grid maxima, given as (channel, index), off-grid.

    Each maximum is bracketed by its grid neighbours, tried at the vertex of
    the parabola through its three samples (if that bows down), and narrowed
    by golden-section search to ``PEAK_REFINE_TOL``, or to 64 ulps of the
    bracket's detunings where those are coarser.  All brackets advance
    in lockstep: each step solves the probes of every open bracket in one
    batched call.  Returns locations, heights and the row of all
    intensities there (``INTENSITY_KEYS`` order), from the winning probe or
    the scan; a height is never below its grid sample, and ties in height
    resolve toward smaller detuning.
    """
    x = result.delta
    up = 1 if x[-1] > x[0] else -1  # neighbours in ascending detuning
    k = np.arange(len(seeds))
    column = np.array([INTENSITY_KEYS.index(channel) for channel, _ in seeds], dtype=int)
    i = np.array([index for _, index in seeds], dtype=int)
    rows = np.column_stack([result.intensities[key] for key in INTENSITY_KEYS])
    y_lo, y_mid, y_hi = rows[i - up, column], rows[i, column], rows[i + up, column]
    lo, hi = x[i - up], x[i + up]

    curvature = y_lo - 2.0 * y_mid + y_hi
    bowed = curvature < 0.0
    h = 0.5 * (hi - lo)
    # Only bowed maxima probe their vertex; the others divide by a dummy -1.
    vertex = x[i] + 0.5 * h * (y_lo - y_hi) / np.where(bowed, curvature, -1.0)
    vertex = np.minimum(np.maximum(vertex, lo), hi)

    # Rows 0/1: bracket ends a/b, inner points c/d and the intensities there.
    ends = np.array([lo, hi])
    inner = np.array([hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)])
    first = _probe(config, ddi, np.concatenate([vertex[bowed], *inner]))
    at_vertex = np.full_like(rows[i], -np.inf)
    at_vertex[bowed] = first[: bowed.sum()]
    at_inner = first[bowed.sum() :].reshape(2, k.size, len(INTENSITY_KEYS))
    # Below 64 ulps rounding could stall the search: its points would coincide.
    tol = np.maximum(PEAK_REFINE_TOL, 64.0 * np.spacing(np.maximum(abs(lo), abs(hi))))
    while (j := np.flatnonzero(ends[1] - ends[0] > tol)).size:
        # Keep the side of the higher inner point; the far end moves in.
        near = np.where(at_inner[0, j, column[j]] >= at_inner[1, j, column[j]], 0, 1)
        far = 1 - near
        ends[far, j] = inner[far, j]
        inner[far, j] = inner[near, j]
        at_inner[far, j] = at_inner[near, j]
        inner[near, j] = ends[far, j] - _INVPHI * (ends[far, j] - ends[near, j])
        at_inner[near, j] = _probe(config, ddi, inner[near, j])

    location, best = x[i], rows[i]
    for at, row in ((vertex, at_vertex), (inner[0], at_inner[0]), (inner[1], at_inner[1])):
        value, height = row[k, column], best[k, column]
        wins = (value > height) | ((value == height) & (at < location))
        location, best = np.where(wins, at, location), np.where(wins[:, None], row, best)
    return location, best[k, column], best


def find_peaks(
    result: TransportSolution,
    *channels: str,
    refine: bool = False,
    config: SystemConfig | None = None,
    ddi: DdiMatrix | None = None,
) -> list[Peak]:
    """Local maxima of one or more channels on a strictly monotone grid,
    sorted by location (stable, so equal locations keep channel order).

    ``refine`` polishes every maximum off-grid (see ``_refine_maxima``), all
    channels' peaks in lockstep; it re-solves the transport problem, so it
    needs the config and coupling matrix that produced the scan.
    """
    if result.delta.size == 0:
        raise ValueError("empty grid")
    _check_monotone(result.delta)
    if not channels:
        raise ValueError("find_peaks needs at least one channel")
    for channel in channels:
        if channel not in result.intensities:
            raise KeyError(f"unknown channel {channel!r}")
    if refine and (config is None or ddi is None):
        raise ValueError("refinement requires config and ddi for fresh solves")

    seeds = [
        (channel, i)
        for channel in channels
        for i in _plateau_maxima(result.delta, result.intensities[channel])
    ]
    if refine:
        locations, heights, _ = _refine_maxima(config, ddi, result, seeds)
    else:
        locations = [result.delta[i] for _, i in seeds]
        heights = [result.intensities[channel][i] for channel, i in seeds]
    peaks = [
        Peak(channel=channel, location=float(x), height=float(y), refined=refine)
        for (channel, _), x, y in zip(seeds, locations, heights)
    ]
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
    The first failing point of the first column that has one raises its
    SolverError.
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
    t_bar_min >= t_min ordering is structural.  The first failing point of
    the first scan that has one raises its SolverError.
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
        i = int(np.argmax(result.intensities["Tt"]))
        if 0 < i < grid.size - 1:
            location, _, rows = _refine_maxima(cfg, ddi, result, [("Tt", i)])
            delta_star, row = float(location[0]), rows[0]
        else:
            delta_star = float(grid[i])
            row = [result.intensities[key][i] for key in INTENSITY_KEYS]
        at_peak = dict(zip(INTENSITY_KEYS, map(float, row)))
        records.append(
            ScalingRecord(
                n=int(n),
                tt_max=at_peak["Tt"],
                delta_star=delta_star,
                t_min=min(float(np.min(result.intensities["T"])), at_peak["T"]),
                t_bar_min=at_peak["T"],
                loss_at_peak=at_peak["loss"],
            )
        )
    return ScalingReport(
        records=tuple(records),
        window=(float(grid[0]), float(grid[-1]), int(grid.size)),
    )
