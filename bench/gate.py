"""Correctness gate: checks a run's data artifacts without the code under test.

Seed 0 is compared row by row with reference outputs generated from the
seed commit (``reference/``).  Every seed, 0 included, also re-solves a
seeded sample of rows and every reported peak height with the frozen solver
in ``oracle.py``.  Refined peak locations must lie within the solver's
refinement width of the seed-0 reference, because a shifted grid still
brackets the same maxima.  Unrefined peaks depend on the grid, so
off seed 0 they must be the grid maxima of the oracle's own spectrum.
A scale-n report's figures at each refined ``delta_star`` are re-solved,
and its transmission minimum may not exceed the oracle's T at a sampled
row.  Invariants hold on every row: values are finite, loss >= -1e-12,
and R = Rt = 0 exactly on chiral chains.
"""

from __future__ import annotations

import gzip
import json
import random
from pathlib import Path

import numpy as np

import oracle
from workloads import Workload

INTENSITY_TOL = 1e-10   # absolute, on every intensity
PEAK_TOL = 1e-4         # the solver's peak refinement width, Gamma0
LOSS_FLOOR = -1e-12
GRID_TOL = 1e-9         # printed detunings and spacings vs the generated grid
SAMPLE_ROWS = 16        # oracle re-solves per scan

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SPECTRUM_COLUMNS = ["delta", "T", "R", "Tt", "Rt", "loss"]
SWEEP_COLUMNS = ["delta", "L_nm", "Tt", "T"]
PEAK_CHANNELS = ("T", "R", "Tt", "Rt")


class Problems:
    """Gate findings plus the largest deviation compared."""

    def __init__(self):
        self.messages: list[str] = []
        self.max_abs_err = 0.0

    def fail(self, message: str) -> None:
        self.messages.append(message)

    def close(self, what: str, got, want, tol: float = INTENSITY_TOL) -> None:
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)), initial=0.0))
        if not np.isfinite(err) or err > tol:
            self.fail(f"{what}: deviation {err:.3e} exceeds {tol:.0e}")
        if tol <= INTENSITY_TOL and np.isfinite(err):  # intensities, not locations
            self.max_abs_err = max(self.max_abs_err, err)


def _table(text: str, columns: list[str]) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"expected header {','.join(columns)}")
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2).reshape(-1, len(columns))


def _parse(kind: str, text: str):
    if kind == "spectrum":
        return _table(text, SPECTRUM_COLUMNS)
    if kind == "sweep":
        return _table(text, SWEEP_COLUMNS)
    return json.loads(text)


def load_reference(workload: Workload) -> dict | None:
    """Parsed seed-0 artifacts of a workload, or None if none are committed."""
    folder = REFERENCE_DIR / workload.name
    if not folder.is_dir():
        return None
    return {
        kind: _parse(kind, gzip.decompress((folder / (path.name + ".gz")).read_bytes()).decode())
        for kind, path in workload.outputs(Path()).items()
    }


class Gate:
    """Checks every run of one workload and seed.  Oracle solves are cached,
    so a run pays for them once, and always outside the timed calls."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deltas = workload.deltas(seed)
        self.reference = load_reference(workload)
        rng = random.Random(seed)
        self.rows = sorted(rng.sample(range(self.deltas.size), min(SAMPLE_ROWS, self.deltas.size)))
        if workload.spacings is not None:
            lo, hi, points = workload.spacings
            self.spacings = np.linspace(lo, hi, points)
            cells = self.spacings.size * self.deltas.size
            self.cells = sorted(rng.sample(range(cells), min(4 * SAMPLE_ROWS, cells)))
        self._cache: dict = {}

    def oracle(self, delta: float, **changes) -> dict:
        key = (float(delta), tuple(sorted(changes.items())))
        if key not in self._cache:
            config = self.workload.config | changes
            self._cache[key] = oracle.intensities(config, float(delta))
        return self._cache[key]

    def prime(self) -> None:
        """Solve the sampled rows up front, before any timed call."""
        if self.workload.spacings is not None:
            for cell in self.cells:
                k, j = divmod(cell, self.deltas.size)
                self.oracle(self.deltas[j], spacing=float(self.spacings[k]))
        elif self.workload.n_list is not None:
            for n in self.workload.n_list:
                for i in self.rows:
                    self.oracle(self.deltas[i], n_emitters=n)
        elif self.workload.refine or self.seed == 0:
            for i in self.rows:
                self.oracle(self.deltas[i])
        else:
            self._oracle_grid_peaks()

    def check(self, out_dir: Path) -> Problems:
        problems = Problems()
        for kind, path in self.workload.outputs(out_dir).items():
            try:
                data = _parse(kind, path.read_text())
            except (OSError, ValueError) as err:
                problems.fail(f"{path.name}: unreadable ({err})")
                continue
            ref = self.reference[kind] if self.reference else None
            try:
                getattr(self, f"_check_{kind}")(data, ref, problems)
            except (KeyError, TypeError, IndexError, ValueError) as err:
                problems.fail(f"{path.name}: malformed ({err!r})")
        return problems

    def _grid(self, what: str, got: np.ndarray, want: np.ndarray, problems: Problems) -> None:
        if got.shape != want.shape or not np.all(np.abs(got - want) <= GRID_TOL * np.maximum(1.0, np.abs(want))):
            problems.fail(f"{what} do not match the generated grid")

    def _check_spectrum(self, data: np.ndarray, ref, problems: Problems) -> None:
        if data.shape != (self.deltas.size, len(SPECTRUM_COLUMNS)):
            problems.fail(f"spectrum has shape {data.shape}")
            return
        self._grid("spectrum detunings", data[:, 0], self.deltas, problems)
        if not np.isfinite(data).all():
            problems.fail("spectrum has non-finite values")
        if data[:, 5].min() < LOSS_FLOOR:
            problems.fail(f"spectrum loss {data[:, 5].min():.3e} below {LOSS_FLOOR}")
        if self.workload.chiral and np.any(data[:, [2, 4]] != 0.0):
            problems.fail("chiral spectrum has non-zero R or Rt")
        for i in self.rows:
            want = self.oracle(self.deltas[i])
            problems.close(f"spectrum row {i}", data[i, 1:], [want[k] for k in SPECTRUM_COLUMNS[1:]])
        if ref is not None and self.seed == 0:
            problems.close("spectrum vs reference", data[:, 1:], ref[:, 1:])

    def _check_peaks(self, peaks: list, ref, problems: Problems) -> None:
        for p in peaks:
            if p["refined"] is not self.workload.refine or not np.isfinite([p["location"], p["height"]]).all():
                problems.fail(f"bad peak record {p}")
                continue
            problems.close(f"{p['channel']} peak height at {p['location']}", p["height"], self.oracle(p["location"])[p["channel"]])
        if [p["location"] for p in peaks] != sorted(p["location"] for p in peaks):
            problems.fail("peaks are not sorted by location")
        if self.workload.refine:
            # Refined maxima do not depend on the grid, so any seed matches seed 0.
            if ref is None:
                return
            want, tol = ref, PEAK_TOL
        elif ref is not None and self.seed == 0:
            want, tol = ref, GRID_TOL
        else:
            want, tol = self._oracle_grid_peaks(), GRID_TOL
        for channel in PEAK_CHANNELS:
            got_at = [p["location"] for p in peaks if p["channel"] == channel]
            want_at = [p["location"] for p in want if p["channel"] == channel]
            if len(got_at) != len(want_at):
                problems.fail(f"{channel}: {len(got_at)} peaks, expected {len(want_at)}")
            else:
                problems.close(f"{channel} peak locations", got_at, want_at, tol)

    def _oracle_grid_peaks(self) -> list[dict]:
        """Grid maxima of the oracle's spectrum, for unrefined peaks."""
        rows = [self.oracle(d) for d in self.deltas]
        return [
            {"channel": channel, "location": float(self.deltas[i])}
            for channel in PEAK_CHANNELS
            for i in oracle.plateau_maxima([row[channel] for row in rows])
        ]

    def _check_sweep(self, data: np.ndarray, ref, problems: Problems) -> None:
        n_l, n_d = self.spacings.size, self.deltas.size
        if data.shape != (n_l * n_d, len(SWEEP_COLUMNS)):
            problems.fail(f"sweep has shape {data.shape}")
            return
        self._grid("sweep detunings", data[:, 0], np.tile(self.deltas, n_l), problems)
        self._grid("sweep spacings", data[:, 1], np.repeat(self.spacings, n_d), problems)
        if not np.isfinite(data).all():
            problems.fail("sweep has non-finite values")
        # R and Rt are not written; both are >= 0, so loss >= -1e-12 needs T + Tt <= 1 + 1e-12.
        if (data[:, 2] + data[:, 3]).max() > 1.0 - LOSS_FLOOR:
            problems.fail("sweep has T + Tt above 1")
        for cell in self.cells:
            k, j = divmod(cell, n_d)
            want = self.oracle(self.deltas[j], spacing=float(self.spacings[k]))
            problems.close(f"sweep row {cell}", data[cell, 2:], [want["Tt"], want["T"]])
        if ref is not None and self.seed == 0:
            problems.close("sweep vs reference", data[:, 2:], ref[:, 2:])

    def _check_scale(self, report: dict, ref, problems: Problems) -> None:
        window = report["window"]
        self._grid("scale window", np.array([window["min"], window["max"]]), self.deltas[[0, -1]], problems)
        if window["points"] != self.deltas.size:
            problems.fail(f"scale window has {window['points']} points, expected {self.deltas.size}")
        records = report["records"]
        if [r["n"] for r in records] != list(self.workload.n_list):
            problems.fail(f"scale chain lengths {[r['n'] for r in records]}, expected {list(self.workload.n_list)}")
            return
        for r in records:
            n = r["n"]
            values = [r[k] for k in ("tt_max", "delta_star", "t_min", "t_bar_min", "loss_at_peak")]
            if not np.isfinite(values).all():
                problems.fail(f"N={n}: non-finite values {r}")
                continue
            if r["loss_at_peak"] < LOSS_FLOOR:
                problems.fail(f"N={n}: loss at peak {r['loss_at_peak']:.3e} below {LOSS_FLOOR}")
            at_peak = self.oracle(r["delta_star"], n_emitters=n)
            problems.close(
                f"N={n} intensities at delta_star {r['delta_star']}",
                [r["tt_max"], r["t_bar_min"], r["loss_at_peak"]],
                [at_peak["Tt"], at_peak["T"], at_peak["loss"]],
            )
            # t_min is the transmission minimum over the grid and the peak.
            bound = min([at_peak["T"]] + [self.oracle(self.deltas[i], n_emitters=n)["T"] for i in self.rows])
            if r["t_min"] > bound + INTENSITY_TOL:
                problems.fail(f"N={n}: t_min {r['t_min']:.12g} above the oracle's T {bound:.12g} at a grid row or the peak")
        if ref is None:
            return
        # Refined maxima do not depend on the grid, so any seed matches seed 0.
        problems.close("scale delta_star vs reference", [r["delta_star"] for r in records], [r["delta_star"] for r in ref["records"]], PEAK_TOL)
        if self.seed == 0:
            keys = ("tt_max", "t_min", "t_bar_min", "loss_at_peak")
            problems.close("scale vs reference", [[r[k] for k in keys] for r in records], [[r[k] for k in keys] for r in ref["records"]])
