import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import photon_router.spectra as spectra
from photon_router import (
    DdiMatrix,
    Peak,
    SolverError,
    TransportSolution,
    ddi_matrix,
    find_peaks,
    scale_emitters,
    scan,
    solve_spectrum_point_batch,
    solve_transport,
    sweep_separation,
)

from conftest import (
    COUPLING,
    EMISSION,
    chiral_config,
    random_chains,
    symmetric_config,
)
from refine_oracle import refine_maximum

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


def reference_peaks(config, ddi, result, channels):
    """Refined peaks from the scalar reference, in find_peaks order."""
    peaks = []
    for channel in channels:
        def evaluate(delta, channel=channel):
            return solve_transport(config, ddi, delta).intensities[channel]

        y = result.intensities[channel]
        for i in spectra._plateau_maxima(result.delta, y):
            location, height = refine_maximum(result.delta, y, i, evaluate)
            peaks.append(Peak(channel, float(location), float(height), True))
    return sorted(peaks, key=lambda p: p.location)


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
                find_peaks(result, "Tt", refine=refine, config=config, ddi=ddi)

    def test_refinement_stops_at_the_float_resolution(self):
        # At delta ~ 1e15 one ulp is 0.125 Gamma0: a bracket can never shrink
        # to PEAK_REFINE_TOL, so the search stops at 64 ulps instead of looping.
        config = chiral_config(2)
        exchange = 1e15
        ddi = DdiMatrix([[0.0, exchange], [exchange, 0.0]])
        result = scan(config, ddi, np.linspace(exchange - 60.0, exchange + 60.0, 121))
        (raw,) = find_peaks(result, "Tt")
        (peak,) = find_peaks(result, "Tt", refine=True, config=config, ddi=ddi)
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
        refined = find_peaks(result, "Tt", refine=True, config=config, ddi=ddi)
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
        peaks = find_peaks(result, "Tt", refine=True, config=config, ddi=ddi)
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
            find_peaks(scan(config, ddi, g), "Tt", refine=True, config=config, ddi=ddi)
            for g in (grid, grid[::-1])
        )
        assert len(up) == 2
        assert down == up

    def test_refinement_solves_every_peak_in_each_step(self, monkeypatch):
        config = symmetric_config(2, gamma=EMISSION)
        ddi = ddi_matrix(config)
        result = scan(config, ddi, np.linspace(-60.0, 60.0, 121))
        batch, calls = spectra.solve_spectrum_point_batch, []

        def counting(*args):
            calls.append(len(args[2]))
            return batch(*args)

        monkeypatch.setattr(spectra, "solve_spectrum_point_batch", counting)
        peaks = find_peaks(result, *CHANNELS, refine=True, config=config, ddi=ddi)
        assert len(peaks) == 7 and {p.channel for p in peaks} == set(CHANNELS)
        together = list(calls)

        # The first Tt peak on its own: a three-point window around it.
        i = int(np.argmax(result.intensities["Tt"][:60]))
        window = spectrum(
            result.delta[i - 1 : i + 2],
            {k: v[i - 1 : i + 2] for k, v in result.intensities.items()},
        )
        calls.clear()
        (alone,) = find_peaks(window, "Tt", refine=True, config=config, ddi=ddi)
        assert alone in peaks
        assert len(calls) == len(together)
        assert sum(together) > 6 * sum(calls)


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
    peaks = find_peaks(result, *CHANNELS, refine=True, config=config, ddi=ddi)
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
        "grid", [np.linspace(-20.0, 20.0, 41), np.linspace(5.0, 50.0, 10)],
        ids=["refined", "grid-edge"],
    )
    def test_record_is_read_from_the_winning_solve(self, grid):
        # The figures at delta_star come from the refinement probe (or the
        # scan sample) that won, bit-equal to a fresh solve there.
        config = chiral_config(3)
        (record,) = scale_emitters(config, [3], grid).records
        at_peak = solve_transport(config, ddi_matrix(config), record.delta_star).intensities
        assert record.tt_max == at_peak["Tt"]
        assert record.t_bar_min == at_peak["T"]
        assert record.loss_at_peak == at_peak["loss"]

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

    def test_routing_improves_with_chain_length(self, reference_scaling):
        maxima = [r.tt_max for r in reference_scaling.records]
        assert [r.n for r in reference_scaling.records] == [1, 2, 5, 10, 20, 30]
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))
        for record in reference_scaling.records:
            assert record.t_bar_min >= record.t_min - 1e-12
            assert 0.0 <= record.tt_max <= 1.0 + 1e-9
