import dataclasses
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from photon_router import (
    ConfigError,
    DetuningGrid,
    SystemConfig,
    load_config,
    validate,
)
from photon_router.params import ELEMENT_LIMIT, EMITTER_LIMIT, POINTS_LIMIT

from conftest import chiral_config


def test_reference_config_valid_with_derived_phases():
    config = chiral_config(1)
    assert config.chiral is True
    # 2*pi*32.75/211.8 and 2*pi*32.75/655, evaluated independently
    assert config.theta == pytest.approx(0.97155013602517213, abs=1e-14)
    assert config.theta / math.pi == pytest.approx(0.3093, abs=1e-4)
    assert config.r_step == pytest.approx(0.31415926535897932, abs=1e-14)


def test_r_step_for_thirty_emitters():
    config = chiral_config(30)
    assert config.r_step == pytest.approx(0.31416, abs=1e-5)


def test_half_wavelength_spacing_gives_theta_pi():
    config = validate(SystemConfig(spacing=105.9, lambda_sp=211.8))
    assert config.theta == pytest.approx(math.pi, rel=1e-12)


def test_negative_gamma_rejected():
    with pytest.raises(ConfigError, match="gamma must be non-negative"):
        validate(SystemConfig(gamma=-1.0))


def test_all_violations_reported_at_once():
    bad = SystemConfig(
        n_emitters=0, gamma=-1.0, gamma_dr=-2.0, spacing=0.0, lambda_qd=0.0,
        ddi_mode="sideways",
    )
    with pytest.raises(ConfigError) as err:
        validate(bad)
    text = "\n".join(err.value.errors)
    assert len(err.value.errors) >= 6
    for fragment in ("n_emitters", "gamma ", "gamma_dr", "spacing", "lambda_qd",
                     "ddi_mode"):
        assert fragment in text


def test_manual_ddi_requires_strength():
    with pytest.raises(ConfigError, match="ddi_strength"):
        validate(SystemConfig(n_emitters=2, ddi_mode="manual"))
    validate(SystemConfig(n_emitters=2, ddi_mode="manual", ddi_strength=23.10))


def test_validation_is_idempotent():
    config = chiral_config(3)
    assert validate(validate(config)) is validate(config)


def test_rate_profiles_broadcast_and_override():
    config = chiral_config(3)
    assert config.rate_profile("gamma_dr").tolist() == [11.03, 11.03, 11.03]
    per_emitter = chiral_config(3, gamma=(1.0, 2.0, 3.0))
    assert per_emitter.rate_profile("gamma").tolist() == [1.0, 2.0, 3.0]
    assert per_emitter.gamma == (1.0, 2.0, 3.0)


def test_per_emitter_length_mismatch_rejected():
    with pytest.raises(ConfigError, match="entries for 3 emitters"):
        chiral_config(3, gamma=(1.0, 2.0))


def test_chirality_requires_both_left_channels_blocked():
    assert chiral_config(1).chiral
    assert not chiral_config(1, gamma_dl=0.5).chiral
    assert not chiral_config(2, gamma_ul=(0.0, 0.1)).chiral


def test_step_phase_carrier_by_default():
    config = chiral_config(2)
    assert config.step_phase(250.0) == config.theta
    corrected = chiral_config(2, delta_dependent_phases=True)
    shift = corrected.step_phase(250.0) - corrected.theta
    assert shift != 0.0
    assert abs(shift) < 1e-5  # MHz-scale detunings barely move optical phases


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_theta_linear_in_spacing(spacing):
    single = SystemConfig(spacing=spacing).theta
    double = SystemConfig(spacing=2.0 * spacing).theta
    assert double == 2.0 * single


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "n_emitters": 2,
        "gamma": 6.86,
        "gamma_dr": 11.03,
        "gamma_ur": 11.03,
        "spacing": 32.75,
        "lambda_qd": 655.0,
        "lambda_sp": 211.8,
        "ddi_mode": "auto",
        "detuning": {"min": -40.0, "max": 40.0, "points": 201},
    }))
    config = load_config(path)
    assert config.n_emitters == 2
    assert config.chiral
    assert config.detuning == DetuningGrid(-40.0, 40.0, 201)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_emitters": 2, "coupling": 11.03}))
    with pytest.raises(ConfigError, match="unknown config key 'coupling'"):
        load_config(path)


def test_load_config_rejects_unknown_detuning_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"detuning": {"min": 0, "max": 1, "step": 5}}))
    with pytest.raises(ConfigError, match="unknown detuning key 'step'"):
        load_config(path)


def test_load_config_rejects_a_non_object_root(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([{"n_emitters": 2}]))
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        load_config(path)


def test_load_config_accepts_rate_lists(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_emitters": 2, "gamma": [1.0, 2.0]}))
    config = load_config(path)
    assert config.gamma == (1.0, 2.0)


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n_emitters": }')
    with pytest.raises(json.JSONDecodeError):
        load_config(path)


def test_detuning_grid_validation():
    with pytest.raises(ConfigError, match="points must be >= 1"):
        validate(SystemConfig(detuning=DetuningGrid(0.0, 1.0, 0)))
    with pytest.raises(ConfigError, match="exceeds max"):
        validate(SystemConfig(detuning=DetuningGrid(2.0, 1.0, 5)))
    with pytest.raises(ConfigError, match="5 points needs min < max"):
        validate(SystemConfig(detuning=DetuningGrid(1.0, 1.0, 5)))
    validate(SystemConfig(detuning=DetuningGrid(1.0, 1.0, 1)))


def test_chain_length_and_point_count_are_bounded():
    # Checked on the fields alone: no config of that size is ever built into arrays.
    assert validate(SystemConfig(n_emitters=EMITTER_LIMIT)).n_emitters == EMITTER_LIMIT
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(n_emitters=EMITTER_LIMIT + 1))
    assert err.value.errors == [f"n_emitters must be <= {EMITTER_LIMIT}, got {EMITTER_LIMIT + 1}"]
    validate(SystemConfig(detuning=DetuningGrid(0.0, 1.0, POINTS_LIMIT)))
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(detuning=DetuningGrid(0.0, 1.0, 10**18)))
    assert err.value.errors == [f"detuning points must be <= {POINTS_LIMIT}, got {10**18}"]
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(n_emitters=10**9, detuning=DetuningGrid(0.0, 1.0, POINTS_LIMIT + 1)))
    assert len(err.value.errors) == 2


def test_amplitudes_are_bounded_by_the_element_budget():
    # The largest accepted grid of the longest chain passes, one point more
    # is one line naming P, N and the bytes needed; the budget sits far
    # above the largest reference run (2001 points at N = 30).
    points = ELEMENT_LIMIT // EMITTER_LIMIT
    validate(SystemConfig(n_emitters=EMITTER_LIMIT, detuning=DetuningGrid(0.0, 1.0, points)))
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(n_emitters=EMITTER_LIMIT, detuning=DetuningGrid(0.0, 1.0, points + 1)))
    assert err.value.errors == [
        f"P = {points + 1} detuning points x N = {EMITTER_LIMIT} emitters need"
        f" {16 * (points + 1) * EMITTER_LIMIT} bytes of amplitudes, over the budget of"
        f" {16 * ELEMENT_LIMIT} bytes (ELEMENT_LIMIT)"]
    assert ELEMENT_LIMIT >= 1000 * 2001 * 30


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"n_emitters": 2.5}, "n_emitters must be an integer"),
        ({"n_emitters": True, "gamma_dr": 1.0}, "n_emitters must be an integer"),
        ({"gamma_dr": "x"}, "gamma_dr must be non-negative, got 'x'"),
        ({"n_emitters": 2, "gamma": [1.0, "x"]}, "gamma must be non-negative, got 'x'"),
        ({"gamma0_mhz": math.nan, "gamma_dr": 1.0}, "gamma0_mhz must be positive"),
        ({"spacing": "far"}, "spacing must be positive"),
        ({"ddi_mode": "manual", "ddi_strength": "x"}, "ddi_strength must be finite"),
        ({"delta_dependent_phases": "yes"}, "delta_dependent_phases must be true or false"),
        ({"detuning": {"points": 3.5}}, "detuning points must be an integer"),
        ({"detuning": {"min": "low"}}, "detuning window must be finite"),
    ],
)
def test_load_config_reports_wrong_types(tmp_path, data, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_wrong_types_reported_together():
    bad = SystemConfig(n_emitters=2.5, gamma_dr="x", gamma0_mhz=math.nan)
    with pytest.raises(ConfigError) as err:
        validate(bad)
    text = "\n".join(err.value.errors)
    for fragment in ("n_emitters", "gamma_dr", "gamma0_mhz"):
        assert fragment in text


def test_derived_checks_wait_for_valid_fields():
    # theta overflows too, but a wrongly typed field is reported alone.
    with pytest.raises(ConfigError) as err:
        validate(SystemConfig(lambda_sp=1e-320, gamma_dr="x"))
    assert err.value.errors == ["gamma_dr must be non-negative, got 'x'"]
    with pytest.raises(ConfigError, match="theta = 2 pi spacing / lambda_sp"):
        validate(SystemConfig(lambda_sp=1e-320))


def test_total_rate_overflow_names_the_emitter():
    with pytest.raises(ConfigError, match="^emitter 2: total rate"):
        validate(SystemConfig(n_emitters=2, gamma=(0.0, 1e308), gamma_ul=1e308))
    validate(SystemConfig(n_emitters=2, gamma=(1e308, 0.0), gamma_ul=(0.0, 1e308)))


HOSTILE_NUMBERS = (
    st.sampled_from(
        [5e-324, 1e-320, 2.2e-308, -0.0, 1e308, -1e308, math.nan, math.inf, 2**1024]
    )
    | st.floats()
    | st.integers()
)
SCALARS = st.none() | st.booleans() | st.text(max_size=3) | HOSTILE_NUMBERS
HOSTILE = (
    SCALARS
    | st.lists(SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)
)
#: Detuning objects with missing, extra or hostile keys.
DETUNINGS = st.dictionaries(
    st.sampled_from(["min", "max", "points", "step"]), HOSTILE, max_size=4
)
#: Empty, short and over-long per-emitter rate lists of hostile numbers.
RATE_LISTS = st.lists(HOSTILE_NUMBERS, max_size=40)

VALID = {"n_emitters": 2, "gamma": 6.86, "gamma_dr": 11.03, "gamma_ur": 11.03}


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    overrides=st.dictionaries(
        st.sampled_from([field.name for field in dataclasses.fields(SystemConfig)]),
        HOSTILE | RATE_LISTS | DETUNINGS,
        max_size=6,
    ),
    keep_valid=st.booleans(),
)
def test_load_config_returns_a_config_or_a_config_error(tmp_path, overrides, keep_valid):
    path = tmp_path / "config.json"
    path.write_text(json.dumps((VALID if keep_valid else {}) | overrides))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = load_config(path)
        except ConfigError:
            return
    assert isinstance(config, SystemConfig)

