import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import photon_router.scattering as scattering
import photon_router.spectra as spectra
from photon_router import (
    ConfigError,
    DdiMatrix,
    Peak,
    SolverError,
    TransportSolution,
    ddi_matrix,
    find_peaks,
    scale_emitters,
    scan,
    solve_spectrum_point_batch,
    sweep_separation,
)
from photon_router.params import DETUNING_LIMIT, ELEMENT_LIMIT
from photon_router.scattering import INTENSITY_KEYS

from conftest import (
    COUPLING,
    EMISSION,
    chiral_config,
    isolated_pair,
    random_chains,
    replace,
    symmetric_config,
)
from refine_oracle import intensity_errors, refine_maximum

CHANNELS = ("T", "R", "Tt", "Rt")


def spectrum(deltas, intensities):
    """A scan result that carries only its grid and intensities."""
    deltas = np.asarray(deltas, dtype=float)
    ports = np.zeros(deltas.size, dtype=complex)
    return TransportSolution(
        deltas, np.zeros((deltas.size, 0), dtype=complex), ports, ports, ports, ports,
        intensities, np.zeros(deltas.size),
    )


def synthetic(values, channel="T"):
    deltas = np.arange(float(len(values)))
    return spectrum(deltas, {channel: np.asarray(values, float)})


def reference_peaks(config, ddi, result, channels, probes=None):
    """Refined peaks from the scalar reference, in find_peaks order; the
    detunings it solves are appended to ``probes`` if given."""
    peaks = []
    for channel in channels:
        def evaluate(delta, channel=channel):
            if probes is not None:
                probes.append(delta)
            return solve_spectrum_point_batch(config, ddi, [delta]).intensities[channel][0]

        y = result.intensities[channel]
        for i in spectra._plateau_maxima(result.delta, y):
            location, height = refine_maximum(result.delta, y, i, evaluate)
            peaks.append(Peak(channel, float(location), float(height), True))
    return sorted(peaks, key=lambda p: p.location)


def crowded_scan():
    """A lossy symmetric N = 100 scan with 61 peaks in ``CHANNELS``, more
    than one of the solver's point stacks holds at N = 100 (40 points)."""
    config = symmetric_config(100, gamma=EMISSION)
    return scan(config, ddi_matrix(config), np.linspace(-300.0, 300.0, 2001))


def counted_decompositions(monkeypatch):
    """Record every eigendecomposition of carrier matrices, the modes of a
    ``_Chains``, by its M0 stack."""
    modes, calls = scattering._modes, []

    def counting(m0, *args):
        calls.append(m0)
        return modes(m0, *args)

    monkeypatch.setattr(scattering, "_modes", counting)
    return calls


def counted_solves(monkeypatch, solver=None):
    """Record the detunings of every solver call of the spectra module, or
    only of those by one ``solver``, "modes" or "lu"."""
    solve, calls = spectra._solve_chains, []

    def counting(chains, deltas, modal, **switches):
        if solver in (None, "modes" if modal else "lu"):
            calls.append(np.array(deltas))
        return solve(chains, deltas, modal, **switches)

    monkeypatch.setattr(spectra, "_solve_chains", counting)
    return calls


def advancing_steps(monkeypatch, limit=100):
    """Check that every speculative refinement call narrows every open
    bracket and leaves the closed ones alone, for at most ``limit`` calls."""
    steps, calls = spectra._golden_steps, []

    def checked(chains, brackets, column, tol, depth):
        calls.append(depth)
        assert len(calls) <= limit, "refinement does not converge"
        width = brackets[1, :, 0] - brackets[0, :, 0]
        opened = width > tol
        after = steps(chains, brackets, column, tol, depth)
        assert np.all((after[1, :, 0] - after[0, :, 0] < width)[opened])
        assert np.array_equal(after[:, ~opened], brackets[:, ~opened])
        return after

    monkeypatch.setattr(spectra, "_golden_steps", checked)
    return calls


class TestScan:
    def test_single_chiral_lossless_peaks_at_resonance(self):
        config = chiral_config(1, gamma=0.0, ddi_mode="off")
        result = scan(config, ddi_matrix(config), np.linspace(-50.0, 50.0, 501))
        routed = result.intensities["Tt"]
        i = int(np.argmax(routed))
        assert result.delta[i] == pytest.approx(0.0, abs=1e-9)
        assert routed[i] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.abs(result.intensities["loss"]) <= 1e-9)

    def test_single_chiral_lossy_resonant_loss(self):
        config = chiral_config(1)
        result = scan(config, ddi_matrix(config), np.array([0.0]))
        # 1 - (g/(g+2G))^2 - (2G/(g+2G))^2 evaluated independently
        g, G = EMISSION, COUPLING
        expected = 1.0 - (g / (g + 2 * G)) ** 2 - (2 * G / (g + 2 * G)) ** 2
        assert result.intensities["loss"][0] == pytest.approx(expected, abs=1e-12)
        assert result.intensities["loss"][0] == pytest.approx(0.3618, abs=1e-4)

    def test_rows_bounded_and_loss_nonnegative(self):
        config = chiral_config(3)
        result = scan(config, ddi_matrix(config), np.linspace(-80.0, 80.0, 161))
        for key in ("T", "R", "Tt", "Rt"):
            channel = result.intensities[key]
            assert np.all(channel >= 0.0)
            assert np.all(channel <= 1.0 + 1e-9)
        assert np.all(result.intensities["loss"] >= -1e-9)

    def test_grid_must_be_monotone(self):
        config = chiral_config(1)
        ddi = ddi_matrix(config)
        with pytest.raises(ValueError, match="monotone"):
            scan(config, ddi, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="non-empty"):
            scan(config, ddi, np.array([]))

    def test_descending_grid_allowed(self):
        config = chiral_config(1)
        ddi = ddi_matrix(config)
        up = scan(config, ddi, np.linspace(-5.0, 5.0, 11))
        down = scan(config, ddi, np.linspace(5.0, -5.0, 11))
        assert np.array_equal(up.intensities["Tt"], down.intensities["Tt"][::-1])

    @pytest.mark.parametrize(
        "entry", ["scan", "find_peaks", "sweep_separation", "scale_emitters"]
    )
    def test_grid_beyond_the_detuning_limit_is_rejected_before_any_solve(
        self, monkeypatch, entry
    ):
        # Refining this grid's Tt peak once overflowed in the bracket
        # arithmetic (RuntimeWarnings, errors under pyproject) and raised a
        # SolverError at delta = nan: a library grid, like the CLI's window,
        # must lie within +-DETUNING_LIMIT.
        config = chiral_config(3)
        ddi = ddi_matrix(config)
        grid = np.array([-1e308, 0.0, 1e308])
        samples = dict.fromkeys(INTENSITY_KEYS, np.array([0.0, 0.5, 0.0]))
        calls = counted_solves(monkeypatch)
        run = {
            "scan": lambda: scan(config, ddi, grid),
            "find_peaks": lambda: find_peaks(
                dataclasses.replace(spectrum(grid, samples), source=(config, ddi)),
                "T", "Tt", refine=True,
            ),
            "sweep_separation": lambda: sweep_separation(config, (30.0, 35.0), 2, grid),
            "scale_emitters": lambda: scale_emitters(config, [1, 3], grid),
        }[entry]
        with pytest.raises(ValueError, match=r"within \+-DETUNING_LIMIT \(4\.49e\+307\)"):
            run()
        assert calls == []

    @pytest.mark.parametrize("inner", [0.0, -5.0, 3e307])
    def test_grids_at_the_detuning_limit_refine(self, inner):
        # The bracket arithmetic stays finite at the limit itself.
        config = chiral_config(3)
        ddi = ddi_matrix(config)
        result = scan(config, ddi, [-DETUNING_LIMIT, inner, DETUNING_LIMIT])
        peaks = find_peaks(result, "T", "Tt", refine=True)
        assert peaks == reference_peaks(config, ddi, result, ["T", "Tt"])
        assert len(peaks) == (inner != 3e307)

    @pytest.mark.parametrize("solve", [scan, solve_spectrum_point_batch], ids=["scan", "lu"])
    def test_table_rows_are_the_detuning_and_the_intensities(self, solve):
        config = chiral_config(3)
        result = solve(config, ddi_matrix(config), np.linspace(-80.0, 80.0, 41))
        table = result.table()
        assert table.shape == (41, 1 + len(INTENSITY_KEYS))
        columns = [result.delta, *(result.intensities[key] for key in INTENSITY_KEYS)]
        for got, want in zip(table.T, columns):
            assert got.tobytes() == want.tobytes()

    def test_failed_point_raises(self):
        from photon_router import SystemConfig, validate

        config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
        with pytest.raises(SolverError, match=r"^singular .* at delta=\+0 ") as err:
            scan(config, ddi_matrix(config), np.array([-1.0, 0.0, 1.0]))
        assert err.value.delta == 0.0
        assert err.value.condition == np.inf
        result = scan(config, ddi_matrix(config), np.array([-1.0, 1.0]))
        assert result.intensities["T"][0] == 1.0


class TestFindPeaks:
    def test_constant_channel_has_no_peaks(self):
        assert find_peaks(synthetic([0.3] * 7), "T") == []

    def test_interior_maxima_found_and_sorted(self):
        peaks = find_peaks(synthetic([0.0, 0.5, 0.1, 0.9, 0.2]), "T")
        assert [(p.location, p.height) for p in peaks] == [(1.0, 0.5), (3.0, 0.9)]
        assert all(not p.refined for p in peaks)

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_plateau_tie_breaks_toward_smaller_delta(self, order):
        deltas = np.arange(5.0)[::order]
        values = np.array([0.0, 0.7, 0.7, 0.7, 0.1])[::order]
        result = spectrum(deltas, {"T": values})
        assert [p.location for p in find_peaks(result, "T")] == [1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0, float("nan")]) | st.floats(),
                        min_size=1, max_size=12),
        order=st.sampled_from([1, -1]),
    )
    def test_plateau_maxima_by_definition(self, values, order):
        # Brute force: every span [a, b] of equal values whose neighbours
        # are both lower, reported at its edge with the smaller detuning.
        values = np.array(values)
        deltas = np.arange(float(len(values)))[::order]
        expected = [
            a if deltas[a] < deltas[b] else b
            for a in range(1, len(values) - 1)
            for b in range(a, len(values) - 1)
            if all(values[a : b + 1] == values[a])
            and values[a - 1] < values[a] > values[b + 1]
        ]
        assert spectra._plateau_maxima(deltas, values) == expected

    def test_boundary_rises_are_not_peaks(self):
        assert find_peaks(synthetic([0.0, 0.5, 1.0]), "T") == []
        assert find_peaks(synthetic([1.0, 0.5, 0.0]), "T") == []

    def test_empty_grid_and_unknown_channel(self):
        with pytest.raises(ValueError, match="empty grid"):
            find_peaks(spectrum([], {"T": np.array([])}), "T")
        with pytest.raises(KeyError):
            find_peaks(synthetic([0.0, 1.0, 0.0]), "bogus")

    def test_non_monotone_solution_rejected(self):
        # The Tt maximum's neighbours swapped: refining between them would
        # report 0.670383 at 33.7639, not the true 0.67049 at 33.5283.
        config = chiral_config(2)
        ddi = ddi_matrix(config)
        grid = np.linspace(-60.0, 60.0, 121)
        grid[[93, 95]] = grid[[95, 93]]
        result = solve_spectrum_point_batch(config, ddi, grid)
        for refine in (False, True):
            with pytest.raises(ValueError, match="grid must be strictly monotone"):
                find_peaks(result, "Tt", refine=refine)

    def test_refinement_stops_at_the_float_resolution(self):
        # At delta ~ 1e15 one ulp is 0.125 Gamma0: a bracket can never shrink
        # to PEAK_REFINE_TOL, so the search stops at 64 ulps instead of looping.
        config = chiral_config(2)
        exchange = 1e15
        ddi = DdiMatrix([[0.0, exchange], [exchange, 0.0]])
        result = scan(config, ddi, np.linspace(exchange - 60.0, exchange + 60.0, 121))
        (raw,) = find_peaks(result, "Tt")
        (peak,) = find_peaks(result, "Tt", refine=True)
        assert peak.refined and peak.height >= raw.height
        assert abs(peak.location - raw.location) <= 1.0

    def test_refine_requires_solver_context(self):
        with pytest.raises(ValueError, match="config and ddi"):
            find_peaks(synthetic([0.0, 1.0, 0.0]), "T", refine=True)

    def test_refined_height_never_below_grid_sample(self):
        config = chiral_config(2)
        ddi = ddi_matrix(config)
        grid = np.linspace(-60.0, 60.0, 121)  # coarse on purpose
        result = scan(config, ddi, grid)
        raw = find_peaks(result, "Tt")
        refined = find_peaks(result, "Tt", refine=True)
        assert len(raw) == len(refined)
        for before, after in zip(raw, refined):
            assert after.refined
            assert after.height >= before.height
            assert abs(after.location - before.location) <= 1.0

    def test_refined_peak_hits_lossless_routing_maximum(self):
        config = chiral_config(2, gamma=0.0, ddi_mode="manual", ddi_strength=23.10)
        ddi = ddi_matrix(config)
        grid = np.linspace(-60.0, 60.0, 481)
        result = scan(config, ddi, grid)
        peaks = find_peaks(result, "Tt", refine=True)
        tall = [p for p in peaks if p.height > 0.99]
        assert len(tall) == 2
        # +-sqrt(J^2 + G^2 + 2 J G sin(theta)) with J pinned to 23.10
        expected = np.sqrt(
            23.10**2 + COUPLING**2 + 2 * 23.10 * COUPLING * np.sin(config.theta)
        )
        assert tall[0].location == pytest.approx(-expected, abs=1e-3)
        assert tall[1].location == pytest.approx(+expected, abs=1e-3)
        for peak in tall:
            assert peak.height == pytest.approx(1.0, abs=1e-9)


    def test_several_channels_in_one_call(self):
        result = spectrum(
            np.arange(5.0),
            {
                "T": np.array([0.0, 0.5, 0.1, 0.9, 0.2]),
                "R": np.array([0.0, 0.1, 0.0, 0.0, 0.0]),
            },
        )
        peaks = find_peaks(result, "T", "R")
        assert [(p.channel, p.location) for p in peaks] == [
            ("T", 1.0), ("R", 1.0), ("T", 3.0)
        ]
        with pytest.raises(ValueError, match="at least one channel"):
            find_peaks(result)

    def test_descending_grid_refines_like_ascending(self):
        config = chiral_config(2)
        ddi = ddi_matrix(config)
        grid = np.linspace(-60.0, 60.0, 121)
        up, down = (
            find_peaks(scan(config, ddi, g), "Tt", refine=True)
            for g in (grid, grid[::-1])
        )
        assert len(up) == 2
        assert down == up

    def test_refinement_solves_every_peak_in_each_step(self, monkeypatch):
        config = symmetric_config(2, gamma=EMISSION)
        ddi = ddi_matrix(config)
        result = scan(config, ddi, np.linspace(-60.0, 60.0, 121))
        # Every probe is one LU solve of the refinement's chain: count the
        # calls at the solver entry, and check each advances every open bracket.
        calls = counted_solves(monkeypatch)
        advancing_steps(monkeypatch)
        peaks = find_peaks(result, *CHANNELS, refine=True)
        assert len(peaks) == 7 and {p.channel for p in peaks} == set(CHANNELS)
        together = len(calls)

        # Each peak on its own, from a three-point window around it: peaks
        # refined together take no more calls than the slowest alone.
        alone = []
        for channel in CHANNELS:
            for i in spectra._plateau_maxima(result.delta, result.intensities[channel]):
                window = spectrum(
                    result.delta[i - 1 : i + 2],
                    {k: v[i - 1 : i + 2] for k, v in result.intensities.items()},
                )
                window = dataclasses.replace(window, source=result.source)
                calls.clear()
                (peak,) = find_peaks(window, channel, refine=True)
                assert peak in peaks
                alone.append(len(calls))
        assert len(alone) == 7 and together <= max(alone)

    def test_more_brackets_than_one_stack_step_once_a_call(self, monkeypatch):
        # 61 peaks at N = 100, where one point stack holds 40 points: the two
        # stacks a call may probe hold fewer than two steps of every
        # bracket, so no call probes ahead, and each golden-section step is
        # one modal call of every open bracket, after the first call's
        # vertices and inner points.  The LU calls between them re-solve
        # unsure comparisons.
        result = crowded_scan()
        calls = counted_solves(monkeypatch, "modes")
        depths = advancing_steps(monkeypatch)
        peaks = find_peaks(result, *CHANNELS, refine=True)
        assert len(peaks) == 61 > spectra._stack_points(100) and set(depths) == {1}
        assert len(calls) == 20 and all(len(deltas) == 61 for deltas in calls[1:])

    def test_brackets_probe_ahead_by_the_point_stack(self, monkeypatch):
        # 37 peaks at N = 30, where one point stack holds 136 points: every
        # call probes two stacks ahead, each open bracket seven steps while
        # all 37 are open, and further once fewer are.
        config = chiral_config(30)
        result = scan(config, ddi_matrix(config), np.linspace(-300.0, 300.0, 2001))
        calls = counted_solves(monkeypatch)
        depths = advancing_steps(monkeypatch)
        peaks = find_peaks(result, *CHANNELS, refine=True)
        assert len(peaks) == 37 and depths[0] == 2 * spectra._stack_points(30) // 37 == 7
        assert depths == sorted(depths) and len(calls) < 20

    def test_refinement_builds_one_chain_and_returns_the_lus_rows(self, monkeypatch):
        # The scan and its refinement solve one chain, the one the scan
        # built, decomposed once by the scan.  Every row the refinement
        # returns is the scan's grid sample or the LU batch's row at its
        # detuning, bit for bit.  Every comparison that the modes decided
        # had a gap above the sum of its rows' bounds, and the LU orders its
        # two points the same way.
        config = chiral_config(30)
        ddi = ddi_matrix(config)
        decomposed = counted_decompositions(monkeypatch)
        result = scan(config, ddi, np.linspace(-300.0, 300.0, 201))
        _, chains = result._solved
        solved, returned, decided = [], [], []
        solve, refine, compared = spectra._solve_chains, spectra._refine_maxima, spectra._compared

        def solving(chains, deltas, modal, **switches):
            solved.append(chains)
            return solve(chains, deltas, modal, **switches)

        def refining(*args):
            returned.append(refine(*args))
            return returned[-1]

        def comparing(brackets, column):
            higher, sure = compared(brackets, column)
            c, d = brackets[2:, np.arange(column.size), column]
            margin = brackets[2, :, -1] + brackets[3, :, -1]
            by_modes = sure & (margin > 0.0)
            assert np.all(abs(c - d)[by_modes] > margin[by_modes])
            decided.append((brackets[2:, by_modes, 0], column[by_modes], higher[by_modes]))
            return higher, sure

        for name, stand_in in (("_solve_chains", solving), ("_refine_maxima", refining),
                               ("_compared", comparing)):
            monkeypatch.setattr(spectra, name, stand_in)
        peaks = find_peaks(result, *CHANNELS, refine=True)
        assert len(peaks) > 1 and len(decomposed) == 1 and all(c is chains for c in solved)
        assert peaks == reference_peaks(config, ddi, result, CHANNELS)

        (rows,) = returned
        on_grid = np.isin(rows[:, 0], result.delta)
        samples = result.table()[np.searchsorted(result.delta, rows[on_grid, 0])]
        assert rows[on_grid].tobytes() == samples.tobytes()
        batch = solve_spectrum_point_batch(config, ddi, rows[~on_grid, 0])
        assert (~on_grid).sum() > 1 and rows[~on_grid].tobytes() == batch.table().tobytes()

        inner, column, higher = (np.concatenate(part, axis=-1) for part in zip(*decided))
        k = np.arange(higher.size)
        lu = solve_spectrum_point_batch(config, ddi, inner.ravel()).table().reshape(2, k.size, 6)
        assert k.size > 100 and np.array_equal(lu[0, k, column] >= lu[1, k, column], higher)

    @pytest.mark.parametrize("solve", [scan, solve_spectrum_point_batch], ids=["scan", "lu"])
    def test_refinement_solves_the_chain_its_result_records(self, monkeypatch, solve):
        # The record holds the caller's own objects and the chain built from
        # them, which the refinement solves, building no other and
        # decomposing it at most once in all: the scan does, the LU batch
        # does not, and at N = 2 every probe fits one LU stack.  A lossless
        # config passed beside this lossy scan once refined its Tt peaks to
        # 0.970 and 0.9998, above every grid sample (at most 0.670): a result
        # whose source is replaced refines the new source, on a chain of its own.
        config = chiral_config(2)
        ddi = ddi_matrix(config)
        decomposed = counted_decompositions(monkeypatch)
        result = solve(config, ddi, np.linspace(-60.0, 60.0, 121))
        source, chains = result._solved
        assert source is result.source and source[0] is config and source[1] is ddi
        solved, built = [], []
        chain, solve_chains = spectra._chain, spectra._solve_chains

        def building(*args):
            built.append(args)
            return chain(*args)

        def solving(chains, deltas, modal, **switches):
            solved.append(chains)
            return solve_chains(chains, deltas, modal, **switches)

        monkeypatch.setattr(spectra, "_chain", building)
        monkeypatch.setattr(spectra, "_solve_chains", solving)
        peaks = find_peaks(result, "Tt", refine=True)
        assert not built and solved and all(c is chains for c in solved)
        assert len(decomposed) == (solve is scan)
        assert [round(p.height, 3) for p in peaks] == [0.455, 0.670]

        lossless = chiral_config(2, gamma=0.0)
        solved.clear()
        peaks = find_peaks(dataclasses.replace(result, source=(lossless, ddi)), "Tt", refine=True)
        assert len(built) == 1 and all(a is b for a, b in zip(built[0], (lossless, ddi)))
        assert solved and all(c is not chains and c.configs[0] is lossless for c in solved)
        assert [round(p.height, 4) for p in peaks] == [0.9702, 0.9998]

    def test_delta_dependent_refinement_probes_by_the_lu_alone(self, monkeypatch):
        # The scan of a delta-dependent chain sweeps from its modes; every
        # refinement probe is the LU's, of the scan's chain, which it
        # decomposes no further.  Refining the scan's source anew (a new
        # tuple of the same objects), the new chain builds neither the
        # carrier-phase block nor the modes.  The refined peaks are the
        # scalar reference's, from the scan's samples, both times.
        config = chiral_config(30, delta_dependent_phases=True)
        ddi = ddi_matrix(config)
        result = scan(config, ddi, np.linspace(-300.0, 300.0, 201))
        _, kept = result._solved
        decomposed = counted_decompositions(monkeypatch)
        solves, solve = [], spectra._solve_chains

        def solving(chains, deltas, modal, **switches):
            solves.append((chains, modal))
            return solve(chains, deltas, modal, **switches)

        monkeypatch.setattr(spectra, "_solve_chains", solving)
        peaks = find_peaks(result, *CHANNELS, refine=True)
        assert len(peaks) > 1 and solves and not any(modal for _, modal in solves)
        assert all(chains is kept for chains, _ in solves) and not decomposed
        assert peaks == reference_peaks(config, ddi, result, CHANNELS)

        solves.clear()
        anew = dataclasses.replace(result, source=(config, ddi))
        assert find_peaks(anew, *CHANNELS, refine=True) == peaks
        assert solves and not any(modal for _, modal in solves)
        for chains, _ in solves:
            assert chains is not kept
            assert "carrier" not in vars(chains) and "modes" not in vars(chains)


def wrong_sides(config, ddi, channel):
    """A stand-in for ``spectra._predicted_sides`` that predicts every side
    wrong, from a solve at the bracket's inner points."""
    def predicted(peak, lower, upper):
        lower, upper = solve_spectrum_point_batch(config, ddi, [lower, upper]).intensities[channel]
        return not lower >= upper

    return predicted


def ulp_chain():
    """A two-emitter chain whose exchange puts a mode near delta = 1e15,
    where one ulp is 0.125 Gamma0."""
    exchange = 1e15
    return chiral_config(2), DdiMatrix([[0.0, exchange], [exchange, 0.0]])


@pytest.mark.parametrize("predictor", ["wrong", "lower", "upper"])
@pytest.mark.parametrize(
    "case",
    [
        "no-seeds",        # a monotone window: nothing to refine
        "at-64-ulps",      # 2-wide brackets near 1e15: closed before any step
        "near-64-ulps",    # 10-wide brackets near 1e15: steps at ulp resolution
        "descending",
    ],
)
def test_refined_peaks_do_not_depend_on_the_predictor(monkeypatch, case, predictor):
    if case == "no-seeds":
        config = chiral_config(1)
        ddi, grid = ddi_matrix(config), np.linspace(0.5, 50.0, 100)
    elif case.endswith("64-ulps"):
        config, ddi = ulp_chain()
        grid = np.linspace(1e15 - 60.0, 1e15 + 60.0, 121 if case == "at-64-ulps" else 13)
    else:
        config = chiral_config(3)
        ddi, grid = ddi_matrix(config), np.linspace(60.0, -60.0, 121)
    result = scan(config, ddi, grid)
    expected = reference_peaks(config, ddi, result, ["Tt"])
    assert (len(expected) == 0) == (case == "no-seeds")

    sides = {
        "wrong": wrong_sides(config, ddi, "Tt"),
        "lower": lambda peak, lower, upper: True,
        "upper": lambda peak, lower, upper: False,
    }
    monkeypatch.setattr(spectra, "_predicted_sides", sides[predictor])
    calls = advancing_steps(monkeypatch)
    assert find_peaks(result, "Tt", refine=True) == expected
    assert (len(calls) == 0) == (case in ("no-seeds", "at-64-ulps"))


class FirstCall(Exception):
    """Ends a refinement at its first ``_golden_steps`` call, holding its arguments."""


@pytest.mark.blas_bits
@pytest.mark.parametrize("after", ["wrong", "right"])
@pytest.mark.parametrize("right", [0, 1, 3])
def test_a_deep_call_takes_the_steps_of_one_step_calls(monkeypatch, right, after):
    # The brackets of the chiral N = 30 spectrum after their vertex probes.
    # In the deep call every other bracket's first ``right`` predicted sides
    # are right, the next is wrong and the ones after it are ``after`` on the
    # path it took; the other brackets' are all right.  Each bracket takes
    # exactly the steps, bit for bit, of as many one-step calls as its
    # sides were right, plus one, and not the step after them.
    config = chiral_config(30)
    result = scan(config, ddi_matrix(config), np.linspace(-300.0, 300.0, 2001))
    steps = spectra._golden_steps

    def first(*args):
        raise FirstCall(*args)

    monkeypatch.setattr(spectra, "_golden_steps", first)
    with pytest.raises(FirstCall) as call:
        find_peaks(result, *CHANNELS, refine=True)
    chains, brackets, column, tol, _ = call.value.args
    k = np.arange(brackets.shape[1])
    assert k.size == 37 and np.all(brackets[1, :, 0] - brackets[0, :, 0] > tol)

    misled, predicted = k % 2 == 0, []

    def sides(peak, lower, upper):
        # Bracket by bracket, each predicting the sides of steps 1 .. depth - 1.
        j, s = divmod(len(predicted), depth - 1)
        lower, upper = spectra._probe(chains, np.array([lower, upper]))[:, column[j]]
        predicted.append(lower >= upper)
        wrong = s == right or (s > right and after == "wrong")
        return predicted[-1] ^ (misled[j] & wrong)

    monkeypatch.setattr(spectra, "_predicted_sides", sides)
    depth = right + 4
    deep = steps(chains, brackets, column, tol, depth)
    assert len(predicted) == k.size * (depth - 1)

    plain = [brackets]
    for _ in range(depth):
        plain.append(steps(chains, plain[-1], column, tol, 1))
    short, full = plain[right + 1], plain[depth]
    assert deep.shape == short.shape == brackets.shape
    assert deep[:, misled].tobytes() == short[:, misled].tobytes()
    assert deep[:, ~misled].tobytes() == full[:, ~misled].tobytes()
    assert not np.array_equal(deep[:, misled, 0], plain[right + 2][:, misled, 0])


@pytest.mark.blas_bits
@pytest.mark.parametrize("n", [1, 2, 30])
def test_a_deep_call_of_one_bracket_takes_the_steps_of_one_step_calls(monkeypatch, n):
    # The chain-length scaling refines one Tt maximum per chain, first in one
    # call as deep as two point stacks.  With a wrong side predicted at its
    # first predicted step, midway or at its last, that call's bracket is,
    # bit for bit, that of as many one-step calls as its sides were right,
    # plus one.  The one-step calls solve their probe as the deep call does:
    # by the LU at N = 1 and 2, from the modes at N = 30, where its probes
    # fill more than one LU stack.  There the modes leave the comparisons of
    # the last steps unsure, so the deep call reaches only the steps before.
    config = chiral_config(n)

    def first(*args):
        raise FirstCall(*args)

    steps = spectra._golden_steps
    monkeypatch.setattr(spectra, "_golden_steps", first)
    with pytest.raises(FirstCall) as call:
        scale_emitters(config, [n], np.linspace(-300.0, 300.0, 2001))
    chains, brackets, column, tol, depth = call.value.args
    assert brackets.shape[1] == 1 and depth == 2 * spectra._stack_points(n)

    def predicting(wrong):
        """Right sides from the LU, but the one of step ``wrong``."""
        predicted = []

        def sides(peak, lower, upper):
            lower, upper = spectra._probe(chains, np.array([lower, upper]))[:, column[0]]
            predicted.append(lower >= upper)
            return predicted[-1] ^ (len(predicted) == wrong)

        monkeypatch.setattr(spectra, "_predicted_sides", sides)
        return steps(chains, brackets, column, tol, depth), len(predicted)

    deep, predictions = predicting(None)
    closing = predictions + 1  # steps to close the bracket
    modal = closing > spectra._lu_points(n)
    assert modal == (n == 30)
    if modal:
        monkeypatch.setattr(spectra, "_lu_points", lambda n: 0)
    settled, unsure = spectra._settled, []

    def settling(chains, brackets, column, tol):
        unsure.append(not spectra._compared(brackets, column)[1].all())
        return settled(chains, brackets, column, tol)

    monkeypatch.setattr(spectra, "_settled", settling)
    plain = [brackets]
    for _ in range(closing):
        plain.append(steps(chains, plain[-1], column, tol, 1))
    monkeypatch.setattr(spectra, "_settled", settled)
    monkeypatch.setattr(spectra, "_lu_points", scattering._lu_points)
    assert not np.any(plain[-1][1, :, 0] - plain[-1][0, :, 0] > tol)
    reach = unsure.index(True) + 1 if True in unsure else closing
    assert (reach < closing) == modal and reach > closing // 2
    assert deep.tobytes() == plain[reach].tobytes()

    last = min(reach, closing - 1)
    for wrong in (1, last // 2, last):
        deep, predictions = predicting(wrong)
        assert predictions == closing - 1
        assert deep.shape == brackets.shape and deep.tobytes() == plain[wrong].tobytes()
        assert not np.array_equal(deep[:, :, 0], plain[wrong + 1][:, :, 0])


def test_only_probes_of_the_plain_search_raise(monkeypatch):
    # Every point off the step-by-step search's path raises here, and every
    # prediction is wrong, so each call's speculative probes raise: the
    # refinement takes each such step alone and still refines every peak.
    config = chiral_config(3)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-60.0, 60.0, 121))
    path = []
    expected = reference_peaks(config, ddi, result, ["Tt"], path)
    solve, raised, failing = spectra._solve_chains, [], None

    def solving(chains, deltas, modal, **switches):
        for delta in deltas:
            if delta not in path or delta == failing:
                raised.append(delta)
                raise SolverError("off the path", delta)
        return solve(chains, deltas, modal, **switches)

    monkeypatch.setattr(spectra, "_solve_chains", solving)
    monkeypatch.setattr(spectra, "_predicted_sides", wrong_sides(config, ddi, "Tt"))
    assert find_peaks(result, "Tt", refine=True) == expected
    assert len(expected) > 1 and raised

    # A probe the plain search makes still raises: here its last one.
    failing = path[-1]
    with pytest.raises(SolverError) as err:
        find_peaks(result, "Tt", refine=True)
    assert err.value.delta == failing


def test_a_failing_probe_of_a_one_step_call_raises(monkeypatch):
    # With more open brackets than half of two point stacks hold each call
    # takes one golden-section step (depth 1): every probe is the plain
    # search's, so a SolverError from one propagates, and the step is not
    # taken again.
    result = crowded_scan()
    solve, calls, failing = spectra._solve_chains, [], None

    def solving(chains, deltas, modal, **switches):
        calls.append(np.array(deltas))
        if failing in deltas:
            raise SolverError("on the path", failing)
        return solve(chains, deltas, modal, **switches)

    monkeypatch.setattr(spectra, "_solve_chains", solving)
    find_peaks(result, *CHANNELS, refine=True)
    first_step = calls[1]  # calls[0] probes the vertices and inner points
    assert 2 * spectra._stack_points(100) // first_step.size == 1  # depth 1

    failing, calls[:] = first_step[-1], []
    with pytest.raises(SolverError) as err:
        find_peaks(result, *CHANNELS, refine=True)
    assert err.value.delta == failing
    assert sum(failing in deltas for deltas in calls) == 1


def test_exact_modal_ties_are_decided_by_the_lu(monkeypatch):
    # With every probe solved from the modes, the single emitter of the
    # chain-length scaling (seed-0 grid) meets exact ties of its modal Tt.
    # No tie is decided from the modes: its inner points are re-solved by
    # the LU, in calls before the winners' one, and the refined peak is the
    # scalar reference's.
    config = chiral_config(1)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-300.0, 300.0, 2001))
    expected = reference_peaks(config, ddi, result, ["Tt"])
    compared, ties = spectra._compared, []

    def comparing(brackets, column):
        c, d = brackets[2:, np.arange(column.size), column]
        higher, sure = compared(brackets, column)
        tie = (c == d) & (brackets[2, :, -1] + brackets[3, :, -1] > 0.0)
        assert not sure[tie].any()
        ties.append(tie.any())
        return higher, sure

    monkeypatch.setattr(spectra, "_lu_points", lambda n: 0)
    monkeypatch.setattr(spectra, "_compared", comparing)
    lu_calls = counted_solves(monkeypatch, "lu")
    assert find_peaks(result, "Tt", refine=True) == expected
    assert any(ties) and len(lu_calls) > 1


def test_comparisons_without_bounds_are_decided_by_the_lu(monkeypatch):
    # With every estimate NaN, no modal row has a finite bound: each
    # comparison is decided from two LU rows (bounds 0), and the peaks are
    # unchanged, the scalar reference's.
    config = chiral_config(30)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-300.0, 300.0, 201))
    expected = find_peaks(result, *CHANNELS, refine=True)
    errors, compared, margins = spectra._intensity_errors, spectra._compared, []

    def unbounded(chains, result, channel):
        return tuple(np.full_like(part, np.nan) for part in errors(chains, result, channel))

    def comparing(brackets, column):
        higher, sure = compared(brackets, column)
        margins.append(brackets[2:, sure, -1])
        return higher, sure

    monkeypatch.setattr(spectra, "_intensity_errors", unbounded)
    monkeypatch.setattr(spectra, "_compared", comparing)
    assert find_peaks(result, *CHANNELS, refine=True) == expected
    assert expected == reference_peaks(config, ddi, result, CHANNELS)
    assert sum(m.size for m in margins) > 100 and not np.concatenate(margins, axis=1).any()


@pytest.mark.parametrize(
    "chain",
    [
        isolated_pair(chiral_config(30)),
        isolated_pair(symmetric_config(30, gamma=EMISSION)),
        (symmetric_config(30, gamma=EMISSION), None),
    ],
    ids=["chiral", "symmetric", "mirrored"],
)
def test_probe_bounds_are_the_two_pass_oracles(chain, monkeypatch):
    # A modal probe's bound takes its residual from the solve's own check and
    # c_k^T V from the chain; the oracle forms both again.  Their bits agree
    # in every channel, at a point 1e-9 from the isolated pair's mode at
    # delta = 1 too, which the LU re-solves (within RESIDUAL_LIMIT ||M||_inf
    # of a mode).
    config, ddi = chain
    chains = scattering._chain(config, ddi or ddi_matrix(config))
    deltas = np.append(np.linspace(-250.0, 250.0, 61), 1.0 + 1e-9 if ddi else [])
    column = np.arange(deltas.size) % 4 + 1
    modal_calls, solve, lu_points = counted_solves(monkeypatch, "modes"), np.linalg.solve, []

    def solving(matrices, rhs):
        if rhs.shape[-1] == 1:  # an LU stack, not V against [I | b]
            lu_points.extend(-matrices[:, 0, 0].real)  # M_11 = -delta - i Gamma_1 / 2
        return solve(matrices, rhs)

    monkeypatch.setattr(np.linalg, "solve", solving)
    rows = spectra._probe(chains, deltas, column)
    assert len(modal_calls) == 1 and lu_points == ([deltas[-1]] if ddi else [])
    result = scattering._solve_chains(chains, deltas, True)
    assert result.table().tobytes() == rows[:, :-1].tobytes()
    error, sensitivity = intensity_errors(chains, result, column - 1)
    bound = abs(error) + scattering.MODAL_ERROR_FLOOR * (1.0 + sensitivity)
    assert np.isfinite(bound).all() and bound.tobytes() == rows[:, -1].tobytes()


@pytest.mark.blas_bits
def test_a_modal_probe_alone_has_its_bits_in_a_stack(monkeypatch):
    # With every probe given a column solved from the modes, a probe solved
    # alone has the row and bound of the same probe among 40 others: its
    # bound's adjoint is a two-row GEMM, not GEMV, as ``_rows`` pads it.
    config = chiral_config(30)
    chains = scattering._chain(config, ddi_matrix(config))
    deltas = np.linspace(-250.0, 250.0, 41)
    column = np.arange(deltas.size) % 4 + 1
    monkeypatch.setattr(spectra, "_lu_points", lambda n: 0)
    modal_calls = counted_solves(monkeypatch, "modes")
    together = spectra._probe(chains, deltas, column)
    alone = [spectra._probe(chains, deltas[i : i + 1], column[i : i + 1]) for i in range(41)]
    assert len(modal_calls) == 42 and np.all(together[:, -1] > 0.0)
    assert together.tobytes() == np.concatenate(alone).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    chain=random_chains(),
    points=st.integers(min_value=3, max_value=61),
    descending=st.booleans(),
)
def test_lockstep_refinement_matches_scalar_reference(chain, points, descending):
    config, ddi = chain
    grid = np.linspace(-60.0, 60.0, points)
    try:
        result = scan(config, ddi, grid[::-1] if descending else grid)
    except SolverError:
        assume(False)
    peaks = find_peaks(result, *CHANNELS, refine=True)
    assert peaks == reference_peaks(config, ddi, result, CHANNELS)


class TestSweepSeparation:
    def test_single_column_equals_plain_scan(self):
        config = chiral_config(2)
        grid = np.linspace(-40.0, 40.0, 81)
        sweep = sweep_separation(config, (32.75, 32.75), 1, grid)
        reference = scan(config, ddi_matrix(config), grid)
        assert np.array_equal(sweep.routed[0], reference.intensities["Tt"])
        assert np.array_equal(sweep.transmitted[0], reference.intensities["T"])

    def test_rejects_bad_ranges(self):
        config = chiral_config(2)
        grid = np.linspace(-1.0, 1.0, 3)
        with pytest.raises(ValueError, match="positive"):
            sweep_separation(config, (0.0, 50.0), 3, grid)
        with pytest.raises(ValueError, match="exceeds the transition wavelength"):
            sweep_separation(config, (5.0, 700.0), 3, grid)
        with pytest.raises(ValueError, match="empty spacing range"):
            sweep_separation(config, (50.0, 5.0), 3, grid)

    def test_rejects_a_sweep_without_spacings(self):
        grid = np.linspace(-1.0, 1.0, 3)
        with pytest.raises(ValueError, match="l_points must be >= 1, got 0"):
            sweep_separation(chiral_config(2), (5.0, 50.0), 0, grid)

    def test_routing_regions_exist_on_both_detuning_signs(self):
        config = chiral_config(2)
        grid = np.linspace(-40.0, 40.0, 201)
        sweep = sweep_separation(config, (5.0, 100.0), 96, grid)
        band = sweep.spacings > 20.0
        routed = sweep.routed[band]
        transmitted = sweep.transmitted[band]
        good = (routed >= 0.60) & (transmitted <= 0.20)
        assert (good & (sweep.deltas < 0.0)).any()
        assert (good & (sweep.deltas > 0.0)).any()

    @pytest.mark.blas_bits
    @pytest.mark.parametrize(
        "n, points, l_points, overrides",
        [
            (2, 201, 25, {}),                              # 20 spacings per call: 2 calls
            (2, 201, 25, {"delta_dependent_phases": True}),
            (12, 21, 7, {}),                               # 5 spacings per call
            (12, 150, 3, {"delta_dependent_phases": True}),  # 2 stacks per spacing
            (3, 41, 4, {"gamma_dl": 2.0, "gamma_ul": 1.5}),  # symmetric: one call
            # Symmetric with delta-dependent phases: one LU stack over all spacings.
            (3, 41, 4, {"gamma_dl": 2.0, "gamma_ul": 1.5, "delta_dependent_phases": True}),
            (12, 1, 7, {"delta_dependent_phases": True}),  # one point: one row per spacing
        ],
        ids=[
            "n2-carrier", "n2-delta-phases", "n12-carrier", "n12-delta-phases", "n3-symmetric",
            "n3-symmetric-delta-phases", "n12-delta-phases-one-point",
        ],
    )
    def test_bits_equal_one_scan_per_spacing(self, n, points, l_points, overrides):
        config = chiral_config(n, **overrides)
        grid = np.linspace(-40.0, 40.0, points)
        sweep = sweep_separation(config, (5.0, 100.0), l_points, grid)
        for k, spacing in enumerate(sweep.spacings):
            cfg = replace(config, spacing=float(spacing))
            result = scan(cfg, ddi_matrix(cfg), grid)
            assert np.array_equal(sweep.routed[k], result.intensities["Tt"]), spacing
            assert np.array_equal(sweep.transmitted[k], result.intensities["T"]), spacing

    def test_rejects_an_empty_or_unordered_grid(self):
        config = chiral_config(2)
        with pytest.raises(ValueError, match="non-empty"):
            sweep_separation(config, (5.0, 50.0), 3, np.array([]))
        with pytest.raises(ValueError, match="strictly monotone"):
            sweep_separation(config, (5.0, 50.0), 3, np.array([0.0, 2.0, 1.0]))

    def test_sweep_size_is_bounded(self):
        # Rejected on its arguments: nothing of that size is allocated.
        config = chiral_config(2)
        grid = np.linspace(-40.0, 40.0, 201)
        too_many = spectra.SWEEP_POINTS_LIMIT // grid.size + 1
        with pytest.raises(ValueError, match=f"{too_many} spacings x 201 detunings exceeds"):
            sweep_separation(config, (5.0, 100.0), too_many, grid)
        # The amplitudes, spacings x P x N, must fit ELEMENT_LIMIT: at N = 1000,
        # 67 spacings of 1000 detunings do and 68 do not.
        long_chain, grid = chiral_config(1000), np.linspace(-40.0, 40.0, 1000)
        assert ELEMENT_LIMIT // 10**6 == 67
        with pytest.raises(ConfigError, match="68 spacings x P = 1000 detuning points x N = 1000"):
            sweep_separation(long_chain, (5.0, 100.0), 68, grid)

    @staticmethod
    def _pole_sweep(pole_columns, l_points=25, **overrides):
        """Two lossless emitters decoupled from both waveguides: M = J - delta,
        exactly singular at delta = J(spacing).  The grid (201 points, so 20
        spacings share a solver call) holds J of the given spacing columns."""
        config = chiral_config(2, gamma=0.0, gamma_dr=0.0, gamma_ur=0.0, **overrides)
        spacings = np.linspace(20.0, 100.0, l_points)
        grid = np.linspace(-150.0, 150.0, 201)
        for k in pole_columns:
            exchange = ddi_matrix(replace(config, spacing=float(spacings[k]))).values[0, 1]
            grid[np.argmin(abs(grid - exchange))] = exchange
        return config, grid

    @staticmethod
    def _first_failure_of_one_scan_per_spacing(config, l_points, grid):
        for spacing in np.linspace(20.0, 100.0, l_points):
            cfg = replace(config, spacing=float(spacing))
            try:
                scan(cfg, ddi_matrix(cfg), grid)
            except SolverError as err:
                return err
        raise AssertionError("no spacing failed")

    @pytest.mark.parametrize("pole_columns", [(0, 22), (22,)], ids=["first-and-later", "later-only"])
    def test_first_failing_point_in_spacing_major_order_raises(self, pole_columns):
        config, grid = self._pole_sweep(pole_columns)
        expected = self._first_failure_of_one_scan_per_spacing(config, 25, grid)
        with pytest.raises(SolverError, match="singular transport system") as err:
            sweep_separation(config, (20.0, 100.0), 25, grid)
        assert err.value.delta == expected.delta
        assert str(err.value) == str(expected)

    def test_every_spacing_is_validated_before_any_solve(self):
        # theta = 2 pi L / lambda_sp overflows for L above about 50 nm, so the
        # later spacings are config errors; the first spacing has a pole.
        config, grid = self._pole_sweep((0,), lambda_sp=1.748e-306)
        first = self._first_failure_of_one_scan_per_spacing(config, 25, grid)
        assert isinstance(first, SolverError)
        with pytest.raises(ConfigError, match="theta = 2 pi spacing / lambda_sp"):
            sweep_separation(config, (20.0, 100.0), 25, grid)

    def test_spacings_up_to_the_theta_overflow_edge_validate(self):
        # theta = 2 pi L / lambda_sp is finite up to an edge spacing near
        # 50 nm here.  A range that ends there validates at every spacing in
        # it, so the sweep checks its ends alone; one ulp beyond, it fails.
        config = chiral_config(2, lambda_sp=1.748e-306)
        lo, hi = 20.0, 100.0  # theta finite at lo, not at hi
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            finite = np.isfinite(dataclasses.replace(config, spacing=mid).theta)
            lo, hi = (mid, hi) if finite else (lo, mid)
        for spacing in np.linspace(20.0, lo, 97):
            replace(config, spacing=float(spacing))  # validates
        grid = np.linspace(-1.0, 1.0, 3)
        sweep = sweep_separation(config, (20.0, lo), 97, grid)
        assert sweep.spacings[-1] == lo and np.all(np.isfinite(sweep.routed))
        with pytest.raises(ConfigError, match="theta = 2 pi spacing / lambda_sp"):
            sweep_separation(config, (20.0, hi), 97, grid)

    def test_half_wavelength_column_conserves_flux(self):
        config = chiral_config(2, gamma=0.0)
        grid = np.linspace(-40.0, 40.0, 81)
        sweep = sweep_separation(config, (105.9, 105.9), 1, grid)
        # chiral and lossless: everything ends up in the two forward ports
        total = sweep.routed[0] + sweep.transmitted[0]
        assert np.all(np.abs(total - 1.0) <= 1e-9)


class TestScaleEmitters:
    def test_single_emitter_record(self):
        config = chiral_config(2)
        grid = np.linspace(-20.0, 20.0, 201)
        report = scale_emitters(config, [1], grid)
        record = report.records[0]
        assert record.n == 1
        # (2G/(g+2G))^2 at the resonance peak
        assert record.tt_max == pytest.approx(
            (2 * COUPLING / (EMISSION + 2 * COUPLING)) ** 2, abs=1e-6
        )
        assert record.delta_star == pytest.approx(0.0, abs=1e-3)
        assert record.t_bar_min >= record.t_min - 1e-12
        assert report.window == (-20.0, 20.0, 201)

    @pytest.mark.parametrize(
        "grid, on_grid",
        [(np.linspace(-20.0, 20.0, 41), False), (np.linspace(5.0, 50.0, 10), True)],
        ids=["refined", "grid-edge"],
    )
    def test_record_is_read_from_the_winning_solve(self, grid, on_grid):
        # The figures at delta_star come from the refinement probe that won,
        # bit-equal to a fresh solve there, or from the scan sample, bit-equal
        # to a one-point scan (which solves from the chain's modes) there.
        config = chiral_config(3)
        ddi = ddi_matrix(config)
        (record,) = scale_emitters(config, [3], grid).records
        assert (record.delta_star in grid) == on_grid
        if on_grid:
            at_peak = scan(config, ddi, [record.delta_star]).intensities
            at_peak = {key: float(value[0]) for key, value in at_peak.items()}
        else:
            at_peak = solve_spectrum_point_batch(config, ddi, [record.delta_star]).intensities
        assert record.tt_max == at_peak["Tt"]
        assert record.t_bar_min == at_peak["T"]
        assert record.loss_at_peak == at_peak["loss"]

    def test_each_chain_length_builds_its_chain_once(self, monkeypatch):
        # The scan of each N builds its chain, and all of its refinement
        # probes solve that chain.
        config = chiral_config(2)
        built, solves = [], []
        chain, solve = scattering._chain, scattering._solve_chains

        def building(*args):
            built.append(chain(*args))
            return built[-1]

        def solving(chains, deltas, modal, **switches):
            solves.append((chains, modal))
            return solve(chains, deltas, modal, **switches)

        monkeypatch.setattr(scattering, "_chain", building)
        for module in (scattering, spectra):  # the scan's solve, the probes'
            monkeypatch.setattr(module, "_solve_chains", solving)
        scale_emitters(config, [1, 2, 5], np.linspace(-60.0, 60.0, 121))
        assert [chains.n for chains in built] == [1, 2, 5]
        assert all(chains in built for chains, _ in solves)
        for chains in built:
            modal = [m for c, m in solves if c is chains]
            assert modal[0] and len(modal) > 1 and not any(modal[1:])  # a scan, then probes

    def test_refinement_probes_ahead_in_few_calls(self, monkeypatch):
        # One bracket on the N = 30 platform chain: 19 golden-section steps,
        # up to 136 a call, after the call that probes its vertex and inner
        # points (the first call is the scan).
        calls = counted_solves(monkeypatch)
        scale_emitters(chiral_config(30), [30], np.linspace(-300.0, 300.0, 2001))
        assert len(calls) - 1 <= 4

    def test_failed_scan_point_raises(self):
        # The second emitter is decoupled, so delta = 0 is a pole of the scan.
        config = chiral_config(
            2, gamma=(1.0, 0.0), gamma_dr=(1.0, 0.0), gamma_ur=(1.0, 0.0),
            ddi_mode="off",
        )
        with pytest.raises(SolverError, match=r"singular .* at delta=\+0 "):
            scale_emitters(config, [2], np.linspace(-2.0, 2.0, 5))

    def test_input_validation(self):
        config = chiral_config(2)
        grid = np.linspace(-1.0, 1.0, 3)
        with pytest.raises(ValueError, match="non-empty"):
            scale_emitters(config, [], grid)
        with pytest.raises(ValueError, match="ascending"):
            scale_emitters(config, [3, 2], grid)

    @pytest.mark.parametrize("n_list", [[1, 2.5], [True, 2]], ids=["fractional", "bool"])
    def test_chain_lengths_are_validated_uncast(self, n_list):
        grid = np.linspace(-60.0, 60.0, 121)
        with pytest.raises(ConfigError, match="n_emitters must be an integer"):
            scale_emitters(chiral_config(2), n_list, grid)

    @pytest.mark.parametrize(
        "spacing, n_list, message",
        [
            (32.75, [1, 30, 1001], "n_emitters must be <= 1000"),
            # The coupling law overflows at the first pair: N = 2, not N = 1.
            (1e200, [1, 2, 1001], r"spacing 1e\+200 nm is too large"),
        ],
        ids=["length", "couplings"],
    )
    def test_every_chain_length_is_checked_before_any_solve(
        self, monkeypatch, spacing, n_list, message
    ):
        # A config error at a later length comes before the scans of the
        # earlier ones, and the first length that fails names it.
        calls = counted_solves(monkeypatch)
        config = chiral_config(2, spacing=spacing)
        with pytest.raises(ConfigError, match=message):
            scale_emitters(config, n_list, np.linspace(-300.0, 300.0, 2001))
        assert calls == []

    def test_numpy_integer_chain_length_is_accepted(self):
        grid = np.linspace(-60.0, 60.0, 121)
        config = chiral_config(2)
        (record,) = scale_emitters(config, [np.int64(2)], grid).records
        assert type(record.n) is int
        assert record == scale_emitters(config, [2], grid).records[0]

    def test_routing_improves_with_chain_length(self, reference_scaling):
        maxima = [r.tt_max for r in reference_scaling.records]
        assert [r.n for r in reference_scaling.records] == [1, 2, 5, 10, 20, 30]
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))
        for record in reference_scaling.records:
            assert record.t_bar_min >= record.t_min - 1e-12
            assert 0.0 <= record.tt_max <= 1.0 + 1e-9
