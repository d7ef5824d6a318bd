"""Detuning scans, peak extraction, separation sweeps and chain-length
scaling: the machinery that turns batched solves into spectra."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix, _by_offset, _toeplitz, ddi_matrix
from .params import DETUNING_LIMIT, SystemConfig, validate
from .scattering import (
    INTENSITY_KEYS,
    MODAL_ERROR_FLOOR,
    SolverError,
    TransportSolution,
    _chain,
    _Chains,
    _intensity_errors,
    _lu_points,
    _recorded,
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
    return _recorded(config, ddi, _checked_grid(grid), modal=True)


def _plateau_maxima(deltas: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of interior local maxima: runs of equal values above the runs
    on both sides.  A plateau reports its edge with the smaller detuning, on
    either grid direction."""
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    first, last = np.append(0, starts), np.append(starts, len(values)) - 1
    level = values[first]
    higher = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    return np.where(deltas[first] < deltas[last], first, last)[1:-1][higher].tolist()


def _probe(chains: _Chains, deltas: np.ndarray, column: np.ndarray | None = None) -> np.ndarray:
    """The rows (P, 6) of ``TransportSolution.table`` at the detunings (P,),
    each followed by a bound on |I - I_LU| of its intensity in ``column``
    (P,), from one batched solve of ``chains``.  Probes given a column, at
    carrier phases, that fill more than one LU stack (fewer cost the LU
    about as much) are solved from the modes, with bounds
    |e| + ``MODAL_ERROR_FLOOR`` (1 + s) (``_intensity_errors``); all others
    by the LU, with bounds 0."""
    modal = column is not None and not chains.drifts and len(deltas) > _lu_points(chains.n)
    result = _solve_chains(chains, deltas, modal, keep_defect=modal)
    if modal:
        error, sensitivity = _intensity_errors(chains, result, column - 1)
        bound = abs(error) + MODAL_ERROR_FLOOR * (1.0 + sensitivity)
    else:
        bound = np.zeros(result.delta.size)
    return np.column_stack([result.table(), bound])


def _sure(gap: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Whether comparisons of two probed rows, their values ``gap`` apart,
    are sure to have the LU's outcome: both rows are the LU's (``margin``,
    the sum of their bounds, is 0), or the gap exceeds the margin.  An
    exact modal tie, or a margin that is NaN or inf, is never sure."""
    return (abs(gap) > margin) | (margin == 0.0)


def _compared(brackets: np.ndarray, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each bracket's comparison of its inner points, c >= d in its
    ``column``, and whether that is ``_sure``."""
    c, d = brackets[2:, np.arange(column.size), column]
    return c >= d, _sure(c - d, brackets[2, :, -1] + brackets[3, :, -1])


def _settled(
    chains: _Chains, brackets: np.ndarray, column: np.ndarray, tol: np.ndarray
) -> np.ndarray:
    """``brackets`` with both inner points of every open bracket whose
    comparison is not sure (``_compared``) re-solved by the LU, in one call:
    the next golden-section step of every bracket then has the LU's side."""
    unsure = (brackets[1, :, 0] - brackets[0, :, 0] > tol) & ~_compared(brackets, column)[1]
    if unsure.any():
        brackets = brackets.copy()
        brackets[2:, unsure] = _by_the_lu(chains, brackets[2:, unsure])
    return brackets


def _by_the_lu(chains: _Chains, rows: np.ndarray) -> np.ndarray:
    """``rows`` (..., 7), with every row that the modes solved (a bound not
    0) re-solved by the LU in place, all in one call."""
    modal = rows[..., -1] != 0.0
    if modal.any():
        rows[modal] = _probe(chains, rows[modal, 0])
    return rows


def _winners(
    best: np.ndarray, candidates: np.ndarray, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of ``candidates`` (C, K, 7) in turn replaces ``best`` (K, 7)
    where its value in ``column`` is higher, or equal at a smaller
    detuning.  Returns the winning rows, the index of each winner among the
    candidates (-1 for ``best``), and whether all of each maximum's
    comparisons were ``_sure``."""
    k = np.arange(column.size)
    won, sure = np.full(k.size, -1), np.ones(k.size, dtype=bool)
    for index, row in enumerate(candidates):
        value, height = row[k, column], best[k, column]
        sure &= _sure(value - height, row[:, -1] + best[:, -1])
        wins = (value > height) | ((value == height) & (row[:, 0] < best[:, 0]))
        best = np.where(wins[:, None], row, best)
        won = np.where(wins, index, won)
    return best, won, sure


def _vertex(x0, x1, x2, y0, y1, y2) -> np.ndarray:
    """Vertex of the parabola through three samples; not finite where they
    lie on a line."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s1 = (y1 - y0) / (x1 - x0)
        return 0.5 * (x0 + x1) - 0.5 * s1 * (x2 - x0) / ((y2 - y1) / (x2 - x1) - s1)


def _predicted_sides(peak: float, lower: float, upper: float) -> bool:
    """Whether a bracket keeps the side of its lower inner point (as a
    golden-section step does where that point's value is no lower), predicted
    from where its maximum is expected, ``peak``: the inner point nearer it."""
    return abs(lower - peak) <= abs(upper - peak)


def _golden_steps(
    chains: _Chains, brackets: np.ndarray, column: np.ndarray, tol: np.ndarray, depth: int
) -> np.ndarray:
    """Advance every open bracket by up to ``depth`` golden-section steps,
    from one batched solve of all of their probes.

    ``brackets`` (4, K, 7) holds the rows (``_probe``) of each bracket's
    ends a, b and inner points c, d, with their bounds; a step keeps the
    side of the inner point that is higher in the bracket's ``column``, and
    every open bracket's first side is sure (``_settled``).  The steps are
    first planned bracket by bracket, as a plain golden-section loop on the
    detunings as Python floats, which round as numpy's do, up to the
    bracket's first closed step: the first side is read from the rows, the
    later ones are predicted from the vertex of the parabola through the
    kept end and both inner points (``_predicted_sides``, once per bracket
    and step).  Each step records its side, its probe, and the rows of a,
    b, c and d before it, as indices into one table of the brackets' rows
    followed by the probes.  All probes are solved in one call, in
    step-major order.  One pass then gathers the inner rows of every planned
    step and decides all of their comparisons in one ``_compared`` call;
    each bracket keeps its leading run of steps whose side is sure and
    confirmed by the rows, so it takes exactly the steps of a step-by-step
    search.  Returns the brackets (4, K, 7) after them, gathered by index,
    ``_settled``.
    """
    k = np.arange(brackets.shape[1])
    x, level = brackets[..., 0], brackets[:, k, column]
    first = level[2] >= level[3]
    if depth > 1:  # the end the first step keeps: a where it keeps c's side, else b
        end = np.where(first, 0, 1)
        peaks = _vertex(x[end, k], *x[2:], level[end, k], *level[2:]).tolist()
    own = 4 * k.size  # the table's rows before the probes: row r of bracket j is r K + j
    sides, probes, starts, rows = [], [], [], []  # each step's side and probe, each
    # bracket's first step, and its rows of a, b, c and d before each step and after its last
    for j, (spots, left, width) in enumerate(zip(x.T.tolist(), first.tolist(), tol.tolist())):
        at = [j, k.size + j, 2 * k.size + j, 3 * k.size + j]
        starts.append(len(probes))
        for s in range(depth):
            a, b, c, d = spots
            if not b - a > width:
                break
            if s:
                left = _predicted_sides(peaks[j], c, d)
            rows += at
            # The new inner point, at the golden ratio inside the kept (a, d) or (c, b).
            if left:
                probe = d - _INVPHI * (d - a)
                spots, at = [a, d, probe, c], [at[0], at[3], own + len(probes), at[2]]
            else:
                probe = c + _INVPHI * (b - c)
                spots, at = [c, b, d, probe], [at[2], at[1], at[3], own + len(probes)]
            sides.append(left)
            probes.append(probe)
        rows += at

    # Bracket j planned steps start_j .. stop_j - 1, and its states begin at start_j + j.
    start, stop = np.array(starts), np.array([*starts[1:], len(probes)])
    step = np.arange((stop - start).max())[:, None]
    alive = step < stop - start  # (S, K): step s of bracket j was planned
    index, owner = (start + step)[alive], np.broadcast_to(k, alive.shape)[alive]  # step-major
    table = np.concatenate([brackets.reshape(own, -1), np.empty((index.size, brackets.shape[2]))])
    table[own + index] = _probe(chains, np.array(probes)[index], column[owner])
    states = np.array(rows, dtype=int).reshape(-1, 4).T
    higher, sure = _compared(table[states[:, index + owner]], column[owner])
    right = np.zeros((alive.shape[0] + 1, k.size), dtype=bool)
    right[:-1][alive] = sure & (higher == np.array(sides)[index])
    # Each bracket's leading run of right steps, up to its first wrong or unplanned one.
    return _settled(chains, table[states[:, start + k + right.argmin(axis=0)]], column, tol)


def _refine_maxima(
    chains: _Chains, result: TransportSolution, seeds: list[tuple[str, int]]
) -> np.ndarray:
    """Polish interior grid maxima, given as (channel, index), off-grid.

    Each maximum is bracketed by its grid neighbours, tried at the vertex of
    the parabola through its three samples (if that bows down), and narrowed
    by golden-section search to ``PEAK_REFINE_TOL``, or to 64 ulps of the
    bracket's detunings where those are coarser.  Every solver call probes
    every open bracket, each up to depth = max(1, 2 stack // open brackets)
    steps ahead (``_golden_steps``): two of the point stacks that the
    solver records and checks at once (``scattering._stack_points``, 136
    at N = 30): 272 probes a call at N = 30, where the refined reference
    spectrum takes 8 solver calls (13 when a call probed one stack).  Many
    brackets take one step a call.
    A call plans each bracket's steps on its detunings with predicted
    sides, solves all of their probes, and replays every planned step in
    one pass, each bracket up to its first wrongly predicted side, or its
    first comparison that the probes' bounds leave unsure (``_compared``).
    Probes are solved from the chain's modes at carrier phases where they
    fill more than one LU stack (a call of fewer costs the LU about as
    much), else by the LU, and each point on its own.  The LU re-solves
    the inner points of every bracket left on an unsure comparison, in one
    call per call (``_settled``).  The winner loop decides by the same rule
    (``_winners``), and one last LU call re-solves each winner, and every
    candidate of a maximum with an unsure comparison, before the loop runs
    again on them.  So every comparison
    has the LU's outcome and the predictions set only the number of calls:
    locations and heights are those of a step-by-step search by the LU, bit
    for bit.  A call whose speculative probes raise a SolverError is taken
    again one step deep, so only a probe that search makes can raise.
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
    first = _probe(chains, np.concatenate([vertex[bowed], *inner]),
                   np.concatenate([column[bowed], column, column]))
    brackets = np.full((4, k.size, first.shape[1]), np.nan)  # the ends' bounds: never compared
    brackets[:2, :, :-1] = rows[[i - up, i + up]]
    brackets[2:] = first[bowed.sum() :].reshape(2, *brackets.shape[1:])
    # Below 64 ulps rounding could stall the search: its points would coincide.
    tol = np.maximum(PEAK_REFINE_TOL, 64.0 * np.spacing(np.maximum(abs(lo), abs(hi))))
    brackets = _settled(chains, brackets, column, tol)  # as every call leaves them
    while opened := np.count_nonzero(brackets[1, :, 0] - brackets[0, :, 0] > tol):
        depth = max(1, 2 * _stack_points(chains.n) // opened)
        try:
            brackets = _golden_steps(chains, brackets, column, tol, depth)
        except SolverError:
            if depth == 1:
                raise
            # Take the step alone: only a probe the plain search makes may raise.
            brackets = _golden_steps(chains, brackets, column, tol, 1)

    # Each maximum's winner among its grid sample, vertex and inner points.
    # Where all of its comparisons were sure, only the winner must be the
    # LU's; elsewhere every candidate is.  All are re-solved in one call.
    at_vertex = np.full((k.size, first.shape[1]), -np.inf)  # never wins unless probed
    at_vertex[:, -1] = 0.0
    at_vertex[bowed] = first[: bowed.sum()]
    sample = np.column_stack([rows[i], np.zeros(k.size)])
    candidates = np.stack([at_vertex, brackets[2], brackets[3]])
    _, won, sure = _winners(sample, candidates, column)
    resolved = ~sure | (np.arange(len(candidates))[:, None] == won)
    candidates[resolved] = _by_the_lu(chains, candidates[resolved])
    return _winners(sample, candidates, column)[0][:, :-1]


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
        source, chains = result._solved or (None, None)
        if source is not result.source:  # replaced since the solve: refine the new one
            chains = _chain(*result.source)
        rows = _refine_maxima(chains, result, seeds)
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

    Every spacing is validated (from the two ends of the range), and its
    couplings built, before any solve, so a ConfigError at any spacing
    comes before a SolverError at an earlier one.  Whole spacings then
    share solver calls of at most
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
    # Validity is monotone in the spacing, once it is positive and below
    # lambda_qd: theta, r_step and the delta-dependent step phase grow
    # linearly with it.  So the two ends validate every spacing.
    for end in (configs[0], configs[-1]):
        validate(end)
    by_offset = [_by_offset(cfg) for cfg in configs]  # in order; J in O(N) each
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

    Every chain length is validated, and its ``ddi_matrix`` built, before
    any solve, so a ConfigError at any length comes before a SolverError at
    an earlier one.  Each N's grid is then scanned (``scan``), and its
    routed-intensity maximum refined off-grid on the chain that the scan's
    result keeps; the refined sample joins the transmission minimum, so
    t_bar_min >= t_min holds by construction.  The first failing point of
    the first scan that has one raises its SolverError.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be non-empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {n_list}")

    grid = _checked_grid(grid)
    configs = [dataclasses.replace(config, n_emitters=n) for n in n_list]
    ddis = [ddi_matrix(validate(cfg)) for cfg in configs]  # in order
    records = []
    for cfg, ddi in zip(configs, ddis):
        result = scan(cfg, ddi, grid)
        i = int(np.argmax(result.intensities["Tt"]))
        if 0 < i < grid.size - 1:
            (row,) = _refine_maxima(result._solved[1], result, [("Tt", i)])
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
