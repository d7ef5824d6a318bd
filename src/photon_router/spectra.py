"""Detuning scans, peak extraction, separation sweeps and chain-length
scaling: the machinery that turns batched solves into spectra."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix, _by_offset, _toeplitz
from .params import DETUNING_LIMIT, SystemConfig, validate
from .scattering import (
    INTENSITY_KEYS,
    SolverError,
    TransportSolution,
    _chain,
    _Chains,
    _lu_points,
    _solve_chains,
    _stack_points,
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
    """The detuning grid as a float array, which must be 1-D, non-empty,
    within +-``DETUNING_LIMIT`` (as the CLI's window, so that no refinement
    step overflows) and strictly monotone, in either direction."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        shape = "empty" if grid.size == 0 else f"{grid.ndim}-D"
        raise ValueError(f"{shape} grid: a grid must be a non-empty 1-D array")
    if not np.all(abs(grid) <= DETUNING_LIMIT):
        raise ValueError(f"grid detunings must be within +-DETUNING_LIMIT ({DETUNING_LIMIT:.3g})")
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
    """The rows (P, 6) of ``TransportSolution.table`` at the detunings
    (P,), from one batched LU solve of ``chains``."""
    return _solve_chains(chains, deltas, modal=False).table()


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


def _stepped(left: np.ndarray, quad: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Brackets ``quad`` = (a, b, c, d) after a golden-section step with new
    inner point ``probe``: (a, d, probe, c) where it keeps the side of c
    (``left``), else (c, b, d, probe)."""
    a, b, c, d = quad
    return np.where(left, [a, d, probe, c], [c, b, d, probe])


def _golden_steps(
    chains: _Chains, brackets: np.ndarray, column: np.ndarray, tol: np.ndarray, depth: int
) -> np.ndarray:
    """Advance every open bracket by up to ``depth`` golden-section steps,
    from one batched solve of all of their probes.

    ``brackets`` (4, K, 6) holds the rows (``_probe``) of each bracket's
    ends a, b and inner points c, d; a step keeps the side of the inner
    point that is higher in the bracket's ``column`` (``_stepped``).  The
    steps are first taken on the detunings alone: the first step's side is
    read from the rows, the later ones are predicted from the vertex of the
    parabola through the kept end and both inner points
    (``_predicted_sides``).  After the solve the same steps are replayed on
    the rows, each with its probed row, and each bracket stops at its first
    closed step or at its first step whose side its rows do not confirm: it
    takes exactly the steps of a step-by-step search.  Returns the brackets
    (4, K, 6) after them.
    """
    k = np.arange(brackets.shape[1])
    x, level = brackets[..., 0], brackets[:, k, column]
    left = level[2] >= level[3]
    spots, taken = x, []  # each step's side, probe and open brackets
    for s in range(depth):
        a, b, c, d = spots
        if s == 1:  # the end the first step kept: a where it kept c's side, else b
            end = np.where(left, 0, 1)
            peak = _vertex(x[end, k], *x[2:], level[end, k], *level[2:])
        if s:
            left = _predicted_sides(peak, c, d)
        open_ = b - a > tol
        if not open_.any():
            break
        # The new inner point, at the golden ratio inside the kept (a, d) or (c, b).
        probe = np.where(left, d - _INVPHI * (d - a), c + _INVPHI * (b - c))
        spots = _stepped(left, spots, probe)
        taken.append((left, probe, open_))

    sides, probes, alive = map(np.array, zip(*taken))
    solved = np.full((*alive.shape, brackets.shape[2]), np.nan)
    solved[alive] = _probe(chains, probes[alive])  # step-major
    going = np.ones(k.size, dtype=bool)
    # Each side is checked here, once, against the probed rows of its inner points.
    for left, row, open_ in zip(sides, solved, alive):
        going &= open_ & (left == (brackets[2, k, column] >= brackets[3, k, column]))
        if not going.any():
            break
        brackets = np.where(going[:, None], _stepped(left[:, None], brackets, row), brackets)
    return brackets


def _refine_maxima(
    chains: _Chains, result: TransportSolution, seeds: list[tuple[str, int]]
) -> np.ndarray:
    """Polish interior grid maxima, given as (channel, index), off-grid.

    Each maximum is bracketed by its grid neighbours, tried at the vertex of
    the parabola through its three samples (if that bows down), and narrowed
    by golden-section search to ``PEAK_REFINE_TOL``, or to 64 ulps of the
    bracket's detunings where those are coarser.  Every solver call probes
    every open bracket, each up to depth = max(1, stack // open brackets)
    steps ahead (``_golden_steps``), with stack the points that the solver
    records and checks at once (``scattering._stack_points``, 136 at
    N = 30); many brackets take one step a call.
    A call takes its steps on detunings with predicted sides, solves their
    probes, and replays them on the probed rows up to each bracket's first
    wrongly predicted side.  Each probe is its own LU solve, so the
    predictions set only the number of calls: locations and heights are
    those of a step-by-step search, bit for bit.  A call whose speculative
    probes raise a SolverError is taken again one step deep, so only a
    probe that search makes can raise.
    Returns the winning row (K, 6) of each maximum, as ``result.table()``'s:
    its detuning and intensities, from the winning probe or the scan; a
    height is never below its grid sample, and ties in height resolve
    toward smaller detuning.
    """
    x = result.delta
    up = 1 if x[-1] > x[0] else -1  # neighbours in ascending detuning
    k = np.arange(len(seeds))
    column = np.array([1 + INTENSITY_KEYS.index(channel) for channel, _ in seeds], dtype=int)
    i = np.array([index for _, index in seeds], dtype=int)
    rows = result.table()
    y_lo, y_mid, y_hi = rows[i - up, column], rows[i, column], rows[i + up, column]
    lo, hi = x[i - up], x[i + up]

    curvature = y_lo - 2.0 * y_mid + y_hi
    bowed = curvature < 0.0
    h = 0.5 * (hi - lo)
    # Only bowed maxima probe their vertex; the others divide by a dummy -1.
    vertex = x[i] + 0.5 * h * (y_lo - y_hi) / np.where(bowed, curvature, -1.0)
    vertex = np.minimum(np.maximum(vertex, lo), hi)

    # Brackets: the rows of ends a/b and inner points c/d.
    inner = [hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)]
    first = _probe(chains, np.concatenate([vertex[bowed], *inner]))
    at_vertex = np.full_like(rows[i], -np.inf)  # never wins unless probed
    at_vertex[bowed], at_inner = np.split(first, [bowed.sum()])
    brackets = np.concatenate([rows[[i - up, i + up]], at_inner.reshape(2, *rows[i].shape)])
    # Below 64 ulps rounding could stall the search: its points would coincide.
    tol = np.maximum(PEAK_REFINE_TOL, 64.0 * np.spacing(np.maximum(abs(lo), abs(hi))))
    while opened := np.count_nonzero(brackets[1, :, 0] - brackets[0, :, 0] > tol):
        depth = max(1, _stack_points(chains.n) // opened)
        try:
            brackets = _golden_steps(chains, brackets, column, tol, depth)
        except SolverError:
            if depth == 1:
                raise
            # Take the step alone: only a probe the plain search makes may raise.
            brackets = _golden_steps(chains, brackets, column, tol, 1)

    best = rows[i]
    for row in (at_vertex, brackets[2], brackets[3]):
        value, height = row[k, column], best[k, column]
        wins = (value > height) | ((value == height) & (row[:, 0] < best[:, 0]))
        best = np.where(wins[:, None], row, best)
    return best


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
        rows = _refine_maxima(_chain(*result.source), result, seeds)
        locations = rows[:, 0]
        heights = [row[1 + INTENSITY_KEYS.index(key)] for (key, _), row in zip(seeds, rows)]
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
    configs = [dataclasses.replace(config, spacing=float(spacing)) for spacing in spacings]
    by_offset = [_by_offset(validate(cfg)) for cfg in configs]  # in order; J in O(N) each
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

    Every chain length is validated, and its couplings built, before any
    solve, so a ConfigError at any length comes before a SolverError at an
    earlier one.  Each N's grid is then scanned, and its routed-intensity
    maximum refined off-grid on the same chain; the refined sample joins the
    transmission minimum, so t_bar_min >= t_min holds by construction.  The
    first failing point of the first scan that has one raises its SolverError.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be non-empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {n_list}")

    grid = _checked_grid(grid)
    configs = [dataclasses.replace(config, n_emitters=n) for n in n_list]
    by_offset = [_by_offset(validate(cfg)) for cfg in configs]  # in order; J in O(N) each
    records = []
    for cfg, couplings in zip(configs, by_offset):
        chains = _chain(cfg, DdiMatrix(_toeplitz(couplings)))  # for the scan and the refinement
        result = _solve_chains(chains, grid, modal=True)
        i = int(np.argmax(result.intensities["Tt"]))
        if 0 < i < grid.size - 1:
            (row,) = _refine_maxima(chains, result, [("Tt", i)])
        else:
            row = result.table()[i]
        at_peak = dict(zip(("delta", *INTENSITY_KEYS), map(float, row)))
        records.append(
            ScalingRecord(
                n=int(cfg.n_emitters),
                tt_max=at_peak["Tt"],
                delta_star=at_peak["delta"],
                t_min=min(float(np.min(result.intensities["T"])), at_peak["T"]),
                t_bar_min=at_peak["T"],
                loss_at_peak=at_peak["loss"],
            )
        )
    return ScalingReport(
        records=tuple(records),
        window=(float(grid[0]), float(grid[-1]), int(grid.size)),
    )
