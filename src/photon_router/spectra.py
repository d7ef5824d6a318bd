"""Detuning scans, peak extraction, separation sweeps and chain-length
scaling: the machinery that turns batched solves into spectra."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix, _by_offset, _toeplitz, ddi_matrix
from .params import SystemConfig, validate
from .scattering import (
    INTENSITY_KEYS,
    SolverError,
    TransportSolution,
    _chain,
    _Chains,
    _lu_points,
    _solve_chains,
)

#: Peak locations are refined until stable to this width, Gamma0 units.
PEAK_REFINE_TOL = 1e-4

#: Most (spacing, detuning) points one separation sweep may solve.
SWEEP_POINTS_LIMIT = 10**6

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


def _checked_grid(grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """The detuning grid as a float array, which must be 1-D, non-empty and
    strictly monotone, in either direction."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        shape = "empty" if grid.size == 0 else f"{grid.ndim}-D"
        raise ValueError(f"{shape} grid: a grid must be a non-empty 1-D array")
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("grid must be strictly monotone")
    return grid


def scan(
    config: SystemConfig, ddi: DdiMatrix, grid: Sequence[float] | np.ndarray
) -> TransportSolution:
    """Batch-solve a monotone detuning grid into the solver's
    TransportSolution, from the chain's modes (see ``scattering``), recording
    ``config`` and ``ddi`` as its ``source``; the first grid point that fails
    raises its SolverError."""
    result = _solve_chains(_chain(config, ddi), _checked_grid(grid), modal=True)
    return dataclasses.replace(result, source=(config, ddi))


def _plateau_maxima(deltas: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of interior local maxima: runs of equal values above the runs
    on both sides.  A plateau reports its edge with the smaller detuning, on
    either grid direction."""
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    first, last = np.append(0, starts), np.append(starts, len(values)) - 1
    level = values[first]
    higher = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    return np.where(deltas[first] < deltas[last], first, last)[1:-1][higher].tolist()


def _probe(chains: _Chains, deltas: np.ndarray) -> np.ndarray:
    """One row of intensities (columns in ``INTENSITY_KEYS`` order) per
    detuning, from one batched LU solve of ``chains``."""
    solution = _solve_chains(chains, deltas, modal=False)
    return np.column_stack([solution.intensities[key] for key in INTENSITY_KEYS])


def _vertex(x0, x1, x2, y0, y1, y2) -> np.ndarray:
    """Vertex of the parabola through three samples; not finite where they
    lie on a line."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s1 = (y1 - y0) / (x1 - x0)
        return 0.5 * (x0 + x1) - 0.5 * s1 * (x2 - x0) / ((y2 - y1) / (x2 - x1) - s1)


def _predicted_sides(peak: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Whether each bracket keeps the side of its lower inner point (as a
    golden-section step does where that point's value is no lower), predicted
    from where its maximum is expected, ``peak``: the inner point nearer it."""
    return abs(lower - peak) <= abs(upper - peak)


def _golden_steps(
    chains: _Chains, points: np.ndarray, at: np.ndarray, column: np.ndarray,
    tol: np.ndarray, depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every open bracket by up to ``depth`` golden-section steps,
    from one batched solve of all of their probes.

    ``points`` (4, K) holds each bracket's ends a, b and inner points c, d,
    ``at`` (4, K, 5) the intensities there; a step keeps the side of the
    inner point that is higher in the bracket's ``column``.  The first
    step's side is read from ``at``; the later ones are predicted from the
    vertex of the parabola through the kept end and both inner points
    (``_predicted_sides``), then checked against the probed values: each
    bracket takes its steps up to its first mispredicted side, exactly those
    of a step-by-step search.  Returns ``points`` and ``at`` after them.
    """
    k = np.arange(points.shape[1])
    start = a, b, c, d = points
    level = at[:, k, column]
    left = level[2] >= level[3]
    # Rows of ``spots`` and ``rows`` below: 0-3 the points as given, 4 + s
    # the probe of step s.
    sa, sb, sc, sd = np.arange(4)[:, None].repeat(k.size, axis=1)
    sources, sides, probes, alive = [(sa, sb, sc, sd)], [], [], []
    for s in range(depth):
        if s == 1:
            peak = _vertex(
                np.where(left, start[0], start[1]), start[2], start[3],
                np.where(left, level[0], level[1]), level[2], level[3],
            )
        if s:
            left = _predicted_sides(peak, c, d)
        open_ = b - a > tol
        if not open_.any():
            break
        a, b = np.where(left, a, c), np.where(left, d, b)
        w = _INVPHI * (b - a)
        probe = np.where(left, b - w, a + w)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        sa, sb = np.where(left, sa, sc), np.where(left, sd, sb)
        sc, sd = np.where(left, 4 + s, sd), np.where(left, sc, 4 + s)
        sources.append((sa, sb, sc, sd))
        sides.append(left)
        probes.append(probe)
        alive.append(open_)

    alive, probes = np.array(alive), np.array(probes)
    solved = np.full((*alive.shape, len(INTENSITY_KEYS)), np.nan)
    solved[alive] = _probe(chains, probes[alive])  # step-major
    spots, rows = np.concatenate([points, probes]), np.concatenate([at, solved])
    sources, sides = np.array(sources), np.array(sides)
    # The real side of each later step, from the inner points the step before left.
    inner = rows[sources[1:-1, 2:], k, column]
    confirmed = np.concatenate([sides[:1], inner[:, 0] >= inner[:, 1]]) == sides
    kept = sources[np.logical_and.accumulate(alive & confirmed).sum(axis=0), :, k].T
    return spots[kept, k], rows[kept, k]


def _refine_maxima(
    chains: _Chains, result: TransportSolution, seeds: list[tuple[str, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polish interior grid maxima, given as (channel, index), off-grid.

    Each maximum is bracketed by its grid neighbours, tried at the vertex of
    the parabola through its three samples (if that bows down), and narrowed
    by golden-section search to ``PEAK_REFINE_TOL``, or to 64 ulps of the
    bracket's detunings where those are coarser.  Every solver call probes
    every open bracket, each up to depth = max(1, lu_size // open brackets)
    steps ahead (``_golden_steps``), with lu_size the points of one LU stack
    (``scattering._lu_points``); many brackets take one step a call.
    Each probe is its own LU solve, so the predictions set only the number
    of calls: locations and heights are those of a step-by-step search, bit
    for bit.  A call whose speculative probes raise a SolverError is taken
    again one step deep, so only a probe that search makes can raise.
    Returns locations, heights and the row of all intensities there
    (``INTENSITY_KEYS`` order), from the winning probe or the scan; a height
    is never below its grid sample, and ties in height resolve toward
    smaller detuning.
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

    # Rows 0-3: bracket ends a/b, inner points c/d; ``at`` the intensities there.
    inner = [hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)]
    points = np.array([lo, hi, *inner])
    first = _probe(chains, np.concatenate([vertex[bowed], *inner]))
    at_vertex = np.full_like(rows[i], -np.inf)
    at_vertex[bowed] = first[: bowed.sum()]
    at_inner = first[bowed.sum() :].reshape(2, k.size, len(INTENSITY_KEYS))
    at = np.concatenate([rows[[i - up, i + up]], at_inner])
    # Below 64 ulps rounding could stall the search: its points would coincide.
    tol = np.maximum(PEAK_REFINE_TOL, 64.0 * np.spacing(np.maximum(abs(lo), abs(hi))))
    while opened := np.count_nonzero(points[1] - points[0] > tol):
        depth = max(1, _lu_points(chains.n) // opened)
        try:
            points, at = _golden_steps(chains, points, at, column, tol, depth)
        except SolverError:
            if depth == 1:
                raise
            # Take the step alone: only a probe the plain search makes may raise.
            points, at = _golden_steps(chains, points, at, column, tol, 1)

    location, best = x[i], rows[i]
    for spot, row in ((vertex, at_vertex), (points[2], at[2]), (points[3], at[3])):
        value, height = row[k, column], best[k, column]
        wins = (value > height) | ((value == height) & (spot < location))
        location, best = np.where(wins, spot, location), np.where(wins[:, None], row, best)
    return location, best[k, column], best


def find_peaks(result: TransportSolution, *channels: str, refine: bool = False) -> list[Peak]:
    """Local maxima of one or more channels on a strictly monotone grid,
    sorted by location (stable, so equal locations keep channel order).

    ``refine`` polishes every maximum off-grid (see ``_refine_maxima``), all
    channels' peaks in the same solver calls, by re-solving the chain that
    ``result.source`` records: refining a result without one, that no
    ``scan`` or ``solve_spectrum_point_batch`` returned, raises ValueError.
    """
    _checked_grid(result.delta)
    if not channels:
        raise ValueError("find_peaks needs at least one channel")
    for channel in channels:
        if channel not in result.intensities:
            raise KeyError(f"unknown channel {channel!r}")
    if refine and result.source is None:
        raise ValueError("refinement needs the config and ddi that a result of scan or"
                         " solve_spectrum_point_batch records")

    seeds = [
        (channel, i)
        for channel in channels
        for i in _plateau_maxima(result.delta, result.intensities[channel])
    ]
    if refine:
        locations, heights, _ = _refine_maxima(_chain(*result.source), result, seeds)
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

    Every spacing is validated, and its couplings built, before any
    solve, so a ConfigError at any spacing comes before a SolverError at an
    earlier one.  Whole spacings then share solver calls of at most
    max(P, the points of one LU stack) (P detunings), which bounds the
    M0 and modes a call's chains hold, in spacing-major order, each point
    with its spacing's phases and couplings; the modal stacks inside a call
    are sized as a scan's (see ``scattering``), and the bits of each spacing
    equal a plain scan's, at carrier or delta-dependent phases.  The first
    failing point in that order raises.
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
    grid = _checked_grid(grid)
    if l_points * grid.size > SWEEP_POINTS_LIMIT:
        raise ValueError(
            f"a sweep of {l_points} spacings x {grid.size} detunings exceeds"
            f" {SWEEP_POINTS_LIMIT} points"
        )

    spacings = np.linspace(l_min, l_max, l_points)
    configs, by_offset = [], []  # J in O(N) memory per spacing
    for spacing in spacings:
        configs.append(validate(dataclasses.replace(config, spacing=float(spacing))))
        by_offset.append(_by_offset(configs[-1]))
    per_call = max(grid.size, _lu_points(config.n_emitters)) // grid.size

    routed = np.empty((l_points, grid.size))
    transmitted = np.empty((l_points, grid.size))
    for k in range(0, l_points, per_call):
        call = slice(k, k + per_call)
        chains = _Chains(configs[call], _toeplitz(np.array(by_offset[call])))
        result = _solve_chains(chains, grid, modal=True)
        routed[call] = result.intensities["Tt"].reshape(-1, grid.size)
        transmitted[call] = result.intensities["T"].reshape(-1, grid.size)
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

    grid = _checked_grid(grid)
    records = []
    for n in n_list:
        cfg = validate(dataclasses.replace(config, n_emitters=n))
        chains = _chain(cfg, ddi_matrix(cfg))  # shared by the scan and the refinement
        result = _solve_chains(chains, grid, modal=True)
        i = int(np.argmax(result.intensities["Tt"]))
        if 0 < i < grid.size - 1:
            location, _, rows = _refine_maxima(chains, result, [("Tt", i)])
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
