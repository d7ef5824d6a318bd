import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photon_router import ConfigError, SystemConfig, ddi_coupling, ddi_matrix, validate

from conftest import chiral_config

# High-precision evaluations of the coupling law, frozen as oracles.
NN_COUPLING = 23.082541374161999       # R = 2*pi/20 (32.75 nm on 655 nm)
SECOND_COUPLING = 2.5970938737257061   # R = 2*pi/10
PI_COUPLING = 0.21454376381294339      # R = pi


def test_nearest_neighbour_coupling():
    value = ddi_coupling(2.0 * math.pi / 20.0, math.pi / 2.0)
    assert value == pytest.approx(NN_COUPLING, abs=1e-12)
    assert abs(value - 23.10) <= 0.05  # two-decimal rounding in the source


def test_coupling_at_pi_separation():
    assert ddi_coupling(math.pi, math.pi / 2.0) == pytest.approx(
        PI_COUPLING, abs=1e-12
    )


def test_second_neighbour_coupling():
    assert ddi_coupling(2.0 * 2.0 * math.pi / 20.0, math.pi / 2.0) == pytest.approx(
        SECOND_COUPLING, abs=1e-12
    )


def test_far_field_coupling_negligible():
    assert abs(ddi_coupling(1e6, math.pi / 2.0)) < 1e-6


def test_non_positive_separation_rejected():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="separation must be positive"):
            ddi_coupling(bad, math.pi / 2.0)


def test_matrix_auto_two_emitters():
    matrix = ddi_matrix(chiral_config(2)).values
    assert matrix[0, 0] == 0.0 and matrix[1, 1] == 0.0
    assert matrix[0, 1] == matrix[1, 0] == pytest.approx(NN_COUPLING, abs=1e-12)
    assert abs(matrix[0, 1] - 23.10) <= 0.05


def test_matrix_off_is_zero():
    matrix = ddi_matrix(chiral_config(3, ddi_mode="off")).values
    assert matrix.shape == (3, 3)
    assert np.all(matrix == 0.0)


def test_matrix_auto_includes_all_pairs():
    matrix = ddi_matrix(chiral_config(3)).values
    assert matrix[0, 2] == pytest.approx(SECOND_COUPLING, abs=1e-12)
    assert matrix[0, 2] == matrix[2, 0]


def test_matrix_manual_pins_nearest_neighbour():
    config = chiral_config(3, ddi_mode="manual", ddi_strength=23.10)
    matrix = ddi_matrix(config).values
    assert matrix[0, 1] == 23.10
    assert matrix[0, 2] == pytest.approx(
        23.10 * SECOND_COUPLING / NN_COUPLING, rel=1e-12
    )


@pytest.mark.parametrize("spacing", [467.0, 467.2])
def test_manual_rescaling_near_a_coupling_node_rejected(spacing):
    # The free-space nearest-neighbour law nearly vanishes here, so pinning
    # it to 23.10 would blow the second-neighbour pair up to 5.9e3 (467.0 nm)
    # or 1.8e5 Gamma0 (467.2 nm).
    config = chiral_config(3, ddi_mode="manual", ddi_strength=23.10, spacing=spacing)
    with pytest.raises(ConfigError, match=r"longer-range pair exceed \|ddi_strength\|"):
        ddi_matrix(config)


def test_matrix_is_immutable_and_structurally_sound():
    matrix = ddi_matrix(chiral_config(2))
    with pytest.raises(ValueError):
        matrix.values[0, 1] = 0.0
    from photon_router import DdiMatrix

    with pytest.raises(ValueError, match="square"):
        DdiMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        DdiMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        DdiMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    spacing=st.floats(min_value=5.0, max_value=100.0),
)
def test_matrix_symmetric_hollow_translation_invariant(n, spacing):
    config = validate(SystemConfig(n_emitters=n, spacing=spacing))
    matrix = ddi_matrix(config).values
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    for offset in range(1, n):
        band = np.diagonal(matrix, offset)
        assert np.all(band == band[0])


@given(st.floats(min_value=1e-2, max_value=1e6))
def test_perpendicular_envelope_bound(separation):
    r = separation
    envelope = 0.75 * (1.0 / r**3 + 1.0 / r**2 + 1.0 / r)
    assert abs(ddi_coupling(r, math.pi / 2.0)) <= envelope * (1.0 + 1e-12)


@given(
    separation=st.floats(min_value=1e-2, max_value=1e3),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_angular_decomposition_identity(separation, angle):
    # Regrouped form: the 1/R term carries sin^2, the near-field terms 1-3cos^2.
    r, cos_sq = separation, math.cos(angle) ** 2
    c, s = math.cos(r), math.sin(r)
    regrouped = 0.75 * (
        (1.0 - cos_sq) * (-c / r) + (1.0 - 3.0 * cos_sq) * (c / r**3 + s / r**2)
    )
    scale = 1.0 / r**3 + 1.0 / r**2 + 1.0 / r
    assert ddi_coupling(r, angle) == pytest.approx(regrouped, abs=1e-12 * scale)
