import numpy as np
import pytest

from photon_router import (
    SpectrumResult,
    ddi_matrix,
    find_peaks,
    scale_emitters,
    scan,
    sweep_separation,
)

from conftest import COUPLING, EMISSION, chiral_config


def synthetic(values, channel="T"):
    deltas = np.arange(float(len(values)))
    return SpectrumResult(deltas=deltas, intensities={channel: np.asarray(values, float)})


class TestScan:
    def test_single_chiral_lossless_peaks_at_resonance(self):
        config = chiral_config(1, gamma=0.0, ddi_mode="off")
        result = scan(config, ddi_matrix(config), np.linspace(-50.0, 50.0, 501))
        routed = result.intensities["Tt"]
        i = int(np.argmax(routed))
        assert result.deltas[i] == pytest.approx(0.0, abs=1e-9)
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

    def test_failures_recorded_per_point(self):
        from photon_router import SystemConfig, validate

        config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
        result = scan(config, ddi_matrix(config), np.array([-1.0, 0.0, 1.0]))
        assert len(result.failures) == 1
        assert result.failures[0].delta == 0.0
        assert np.isnan(result.intensities["T"][1])
        assert result.intensities["T"][0] == 1.0


class TestFindPeaks:
    def test_constant_channel_has_no_peaks(self):
        assert find_peaks(synthetic([0.3] * 7), "T") == []

    def test_interior_maxima_found_and_sorted(self):
        peaks = find_peaks(synthetic([0.0, 0.5, 0.1, 0.9, 0.2]), "T")
        assert [(p.location, p.height) for p in peaks] == [(1.0, 0.5), (3.0, 0.9)]
        assert all(not p.refined for p in peaks)

    def test_plateau_tie_breaks_toward_smaller_delta(self):
        peaks = find_peaks(synthetic([0.0, 0.7, 0.7, 0.7, 0.1]), "T")
        assert [p.location for p in peaks] == [1.0]

    def test_boundary_rises_are_not_peaks(self):
        assert find_peaks(synthetic([0.0, 0.5, 1.0]), "T") == []
        assert find_peaks(synthetic([1.0, 0.5, 0.0]), "T") == []

    def test_empty_grid_and_unknown_channel(self):
        with pytest.raises(ValueError, match="empty grid"):
            find_peaks(
                SpectrumResult(deltas=np.array([]), intensities={"T": np.array([])}),
                "T",
            )
        with pytest.raises(KeyError):
            find_peaks(synthetic([0.0, 1.0, 0.0]), "bogus")

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
