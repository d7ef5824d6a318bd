import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from closed_forms import PoleError, single_chiral, single_symmetric, two_chiral
from conftest import COUPLING, EMISSION

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_argmax(f, lo, hi, tol=1e-6):
    """Independent golden-section maximizer used as the refinement oracle."""
    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestSingleSymmetric:
    def test_lossless_resonance_splits_evenly(self):
        amp = single_symmetric(0.0, COUPLING, 0.0)
        assert amp.t == pytest.approx(0.5, abs=1e-15)
        for side in (amp.r, amp.tt, amp.rt):
            assert side == pytest.approx(-0.5, abs=1e-15)
        assert all(
            v == pytest.approx(0.25, abs=1e-14)
            for k, v in amp.intensities().items()
            if k != "loss"
        )

    def test_far_detuned_transparency(self):
        amp = single_symmetric(1e6, COUPLING, 0.0)
        assert abs(amp.t) ** 2 > 0.999
        assert abs(amp.r) ** 2 < 1e-3

    def test_lossy_resonance_values(self):
        # Resonance limit of the closed form: t = (g+2G)/(g+4G), r = -2G/(g+4G).
        g, G = EMISSION, COUPLING
        amp = single_symmetric(0.0, G, g)
        assert amp.t == pytest.approx((g + 2 * G) / (g + 4 * G), abs=1e-15)
        assert amp.r == pytest.approx(-2 * G / (g + 4 * G), abs=1e-15)
        intensities = amp.intensities()
        assert intensities["T"] == pytest.approx(0.3218, abs=1e-4)
        assert intensities["R"] == pytest.approx(0.1872, abs=1e-4)

    def test_lossless_flux_conservation(self):
        for delta in np.linspace(-60.0, 60.0, 241):
            total = sum(
                v for k, v in single_symmetric(delta, COUPLING).intensities().items()
                if k != "loss"
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            single_symmetric(0.0, 0.0)
        with pytest.raises(ValueError):
            single_symmetric(0.0, 1.0, -0.1)


class TestSingleChiral:
    def test_lossless_resonance_routes_with_pi_phase(self):
        amp = single_chiral(0.0, COUPLING, 0.0)
        assert amp.t == 0.0
        assert amp.tt == pytest.approx(-1.0, abs=1e-15)
        assert cmath.phase(amp.tt) == pytest.approx(math.pi)
        assert amp.r == 0.0 and amp.rt == 0.0

    def test_lossy_resonance_values(self):
        g, G = EMISSION, COUPLING
        amp = single_chiral(0.0, G, g)
        assert amp.t == pytest.approx(g / (g + 2 * G), abs=1e-15)
        assert amp.tt == pytest.approx(-2 * G / (g + 2 * G), abs=1e-15)
        assert amp.intensities()["Tt"] == pytest.approx(0.5819, abs=1e-4)

    def test_lossless_unitarity_at_fixed_point(self):
        amp = single_chiral(50.0, COUPLING, 0.0)
        assert abs(amp.t) ** 2 + abs(amp.tt) ** 2 == pytest.approx(1.0, abs=1e-14)

    @given(
        delta=st.floats(min_value=-1e4, max_value=1e4),
        coupling=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_lossless_unitarity(self, delta, coupling):
        amp = single_chiral(delta, coupling, 0.0)
        assert abs(amp.t) ** 2 + abs(amp.tt) ** 2 == pytest.approx(1.0, abs=1e-11)
        assert abs(amp.t) <= 1.0 + 1e-12
        assert abs(amp.tt) <= 1.0 + 1e-12


class TestTwoChiral:
    def test_lossless_uncoupled_routes_at_split_frequencies(self):
        for sign in (+1.0, -1.0):
            amp = two_chiral(sign * COUPLING, COUPLING)
            assert abs(amp.tt) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert abs(amp.t) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_lossless_uncoupled_transparent_at_resonance(self):
        amp = two_chiral(0.0, COUPLING)
        assert amp.t == pytest.approx(1.0, abs=1e-15)
        assert amp.tt == pytest.approx(0.0, abs=1e-15)

    def test_lossy_uncoupled_resonance_values(self):
        # Resonance limit: t = (g^2+4G^2)/(g+2G)^2, tt = -4Gg/(g+2G)^2.
        g, G = EMISSION, COUPLING
        amp = two_chiral(0.0, G, g)
        assert amp.t == pytest.approx((g * g + 4 * G * G) / (g + 2 * G) ** 2, abs=1e-14)
        assert amp.tt == pytest.approx(-4 * G * g / (g + 2 * G) ** 2, abs=1e-14)
        assert amp.intensities()["Tt"] == pytest.approx(0.1309, abs=1e-4)

    def test_coupled_lossless_peak_and_null_locations(self):
        strength, phase = 23.10, 0.3093 * math.pi
        peak = math.sqrt(
            strength**2 + COUPLING**2 + 2 * strength * COUPLING * math.sin(phase)
        )
        assert peak == pytest.approx(32.81, abs=0.05)
        for sign in (+1.0, -1.0):
            amp = two_chiral(sign * peak, COUPLING, 0.0, strength, phase)
            assert abs(amp.tt) ** 2 == pytest.approx(1.0, abs=1e-12)
        null = -strength * math.cos(phase)
        assert null == pytest.approx(-13.05, abs=0.05)
        amp = two_chiral(null, COUPLING, 0.0, strength, phase)
        assert abs(amp.tt) ** 2 < 1e-24

    def test_specializes_to_uncoupled_lossless_form(self):
        # (G^2 - d^2)/(G - i d)^2 and 2iGd/(G - i d)^2 on a 1001-point grid.
        G = COUPLING
        for delta in np.linspace(-100.0, 100.0, 1001):
            amp = two_chiral(delta, G, 0.0, 0.0, 0.0)
            den = (G - 1j * delta) ** 2
            assert amp.t == pytest.approx((G * G - delta * delta) / den, abs=1e-12)
            assert amp.tt == pytest.approx(2j * G * delta / den, abs=1e-12)

    def test_specializes_to_uncoupled_lossy_form(self):
        # (g^2+4G^2-4igd-4d^2)/(g+2G-2id)^2 and -4G(g-2id)/(g+2G-2id)^2.
        g, G = EMISSION, COUPLING
        for delta in np.linspace(-100.0, 100.0, 1001):
            amp = two_chiral(delta, G, g, 0.0, 0.7)
            den = (g + 2 * G - 2j * delta) ** 2
            t_ref = (g * g + 4 * G * G - 4j * g * delta - 4 * delta * delta) / den
            tt_ref = -4 * G * (g - 2j * delta) / den
            assert amp.t == pytest.approx(t_ref, abs=1e-12)
            assert amp.tt == pytest.approx(tt_ref, abs=1e-12)

    def test_refined_argmax_matches_peak_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            coupling = rng.uniform(1.0, 20.0)
            strength = rng.uniform(0.0, 30.0)
            phase = rng.uniform(0.0, math.pi)
            expected = math.sqrt(
                strength**2
                + coupling**2
                + 2.0 * strength * coupling * math.sin(phase)
            )

            def routed(delta):
                return abs(two_chiral(delta, coupling, 0.0, strength, phase).tt) ** 2

            grid = np.linspace(0.5 * expected, 1.5 * expected + 1.0, 801)
            i = int(np.argmax([routed(d) for d in grid]))
            lo = grid[max(i - 1, 0)]
            hi = grid[min(i + 1, len(grid) - 1)]
            refined = golden_argmax(routed, lo, hi, tol=1e-6)
            assert refined == pytest.approx(expected, abs=1e-4)

    def test_pole_guard(self):
        # gamma = 0 with strength*sin(phase) = -coupling is the only real pole.
        with pytest.raises(PoleError):
            two_chiral(0.0, 5.0, 0.0, 5.0, 1.5 * math.pi)
