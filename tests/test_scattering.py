import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photon_router import (
    DdiMatrix,
    SolverError,
    SystemConfig,
    ddi_matrix,
    single_chiral,
    single_symmetric,
    solve_spectrum_point_batch,
    solve_transport,
    two_chiral,
    validate,
)

from photon_router.scattering import STACK_ELEMENTS

from conftest import COUPLING, EMISSION, chiral_config, symmetric_config
from dense_oracle import assemble_system, solve_dense

AMPLITUDES = ("t", "r", "tt", "rt")


def no_ddi(n: int) -> DdiMatrix:
    return DdiMatrix(np.zeros((n, n)))


def assert_same_solution(a, b):
    for key in ("a", *AMPLITUDES):
        assert np.array_equal(getattr(a, key), getattr(b, key))
    assert a.intensities == b.intensities


def test_system_shape_and_boundary_terms():
    config = chiral_config(3)
    matrix, rhs = assemble_system(config, ddi_matrix(config), 0.0)
    n = 3
    assert matrix.shape == (5 * n, 5 * n)
    assert rhs[0] == 1.0  # incoming photon enters the first segment
    assert rhs[4 * n] == pytest.approx(-0.5 * np.sqrt(COUPLING))
    assert np.count_nonzero(rhs) == 2


def test_dimension_mismatch_rejected():
    config = chiral_config(3)
    with pytest.raises(ValueError, match="2x2 for 3 emitters"):
        solve_spectrum_point_batch(config, no_ddi(2), [0.0])


def test_decoupled_emitter_passes_photon_through():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
    sol = solve_transport(config, no_ddi(1), 0.5)
    assert sol.t[0] == 1.0
    assert sol.a[0] == 0.0
    assert sol.intensities["T"] == 1.0
    assert sol.intensities["loss"] == 0.0
    assert sol.residual == 0.0  # zero defect at zero scale


def test_decoupled_emitter_is_singular_at_resonance():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
    with pytest.raises(SolverError) as err:
        solve_transport(config, no_ddi(1), 0.0)
    assert err.value.delta == 0.0
    assert "delta=+0" in str(err.value)
    assert err.value.condition is not None


def test_regularization_resolves_the_pole():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off", regularize=True))
    sol = solve_transport(config, no_ddi(1), 0.0)
    assert sol.intensities["T"] == 1.0


def test_single_symmetric_resonance_splits_evenly():
    config = symmetric_config(1)
    sol = solve_transport(config, no_ddi(1), 0.0)
    for key in ("T", "R", "Tt", "Rt"):
        assert sol.intensities[key] == pytest.approx(0.25, abs=1e-12)


def test_two_chiral_uncoupled_lossless_landmarks():
    config = chiral_config(2, gamma=0.0, ddi_mode="off")
    at_resonance = solve_transport(config, no_ddi(2), 0.0)
    assert at_resonance.intensities["T"] == pytest.approx(1.0, abs=1e-12)
    assert at_resonance.intensities["Tt"] == pytest.approx(0.0, abs=1e-12)
    for sign in (+1.0, -1.0):
        split = solve_transport(config, no_ddi(2), sign * COUPLING)
        assert split.intensities["Tt"] == pytest.approx(1.0, abs=1e-12)
        assert split.intensities["T"] == pytest.approx(0.0, abs=1e-12)


def test_chiral_backflow_is_exactly_zero():
    config = chiral_config(4)
    sol = solve_transport(config, ddi_matrix(config), 17.3)
    assert np.all(sol.r == 0.0)
    assert np.all(sol.rt == 0.0)
    assert sol.intensities["R"] == 0.0
    assert sol.intensities["Rt"] == 0.0


def test_matches_single_emitter_closed_forms():
    grid = np.linspace(-100.0, 100.0, 401)
    sym = symmetric_config(1, gamma=EMISSION)
    chi = chiral_config(1)
    for delta in grid:
        num = solve_transport(sym, no_ddi(1), delta)
        ref = single_symmetric(delta, COUPLING, EMISSION)
        assert abs(num.t[0] - ref.t) < 1e-10
        assert abs(num.r[0] - ref.r) < 1e-10
        num = solve_transport(chi, no_ddi(1), delta)
        ref = single_chiral(delta, COUPLING, EMISSION)
        assert abs(num.t[0] - ref.t) < 1e-10
        assert abs(num.tt[0] - ref.tt) < 1e-10


def test_matches_two_emitter_closed_form_with_coupling():
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    for delta in np.linspace(-80.0, 80.0, 321):
        num = solve_transport(config, ddi, delta)
        ref = two_chiral(delta, COUPLING, EMISSION, ddi.values[0, 1], config.theta)
        assert abs(num.t[-1] - ref.t) < 1e-10
        assert abs(num.tt[-1] - ref.tt) < 1e-10


def test_scalar_and_tuple_rates_solve_identically():
    scalar = chiral_config(3)
    per_emitter = chiral_config(
        3,
        gamma=(EMISSION,) * 3,
        gamma_dr=(COUPLING,) * 3,
        gamma_ur=(COUPLING,) * 3,
    )
    ddi = ddi_matrix(scalar)
    a = solve_transport(scalar, ddi, 12.0)
    b = solve_transport(per_emitter, ddi, 12.0)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.tt, b.tt)
    assert np.array_equal(a.a, b.a)


def test_heterogeneous_chain_decouples_silent_emitter():
    # Second emitter coupled to nothing: same output as the single-emitter chain.
    pair = chiral_config(
        2,
        gamma=(EMISSION, 0.0),
        gamma_dr=(COUPLING, 0.0),
        gamma_ur=(COUPLING, 0.0),
        ddi_mode="off",
    )
    lone = chiral_config(1)
    sol_pair = solve_transport(pair, no_ddi(2), 3.7)
    sol_lone = solve_transport(lone, no_ddi(1), 3.7)
    assert sol_pair.t[-1] == pytest.approx(sol_lone.t[-1], abs=1e-14)
    assert sol_pair.tt[-1] == pytest.approx(sol_lone.tt[-1], abs=1e-14)
    assert sol_pair.a[1] == 0.0


def test_residual_recorded_and_small():
    config = chiral_config(5)
    sol = solve_transport(config, ddi_matrix(config), 40.0)
    assert 0.0 <= sol.residual < 1e-12


def test_far_detuned_transparency_for_long_chain():
    config = chiral_config(30)
    sol = solve_transport(config, ddi_matrix(config), 1e4)
    assert sol.intensities["T"] > 0.99
    assert sol.residual < 1e-10


def test_batch_matches_pointwise_and_preserves_order():
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    deltas = [-5.0, 0.0, 12.5]
    batch = solve_spectrum_point_batch(config, ddi, deltas)
    singleton = solve_spectrum_point_batch(config, ddi, [0.0])
    assert singleton[0].intensities == solve_transport(config, ddi, 0.0).intensities
    forward = [sol.intensities["Tt"] for sol in batch]
    backward = [
        sol.intensities["Tt"]
        for sol in solve_spectrum_point_batch(config, ddi, deltas[::-1])
    ]
    assert forward == backward[::-1]


def test_batch_collects_per_point_failures():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
    out = solve_spectrum_point_batch(config, no_ddi(1), [-1.0, 0.0, 1.0])
    assert out[0].intensities["T"] == 1.0
    assert isinstance(out[1], SolverError)
    assert out[1].delta == 0.0
    assert out[2].intensities["T"] == 1.0


def test_non_finite_solution_never_passes_the_residual_check():
    # A subnormal pivot: LAPACK's reciprocal overflows and the amplitudes
    # come back NaN without a LinAlgError, so the residual is NaN too.
    config = validate(
        SystemConfig(n_emitters=1, gamma_ur=5e-324, gamma_ul=5e-324, ddi_mode="off")
    )
    out = solve_spectrum_point_batch(config, no_ddi(1), [0.0, 1.0])
    assert isinstance(out[0], SolverError)
    assert "near-singular" in str(out[0])
    assert out[1].intensities["T"] == 1.0


def test_singular_point_fails_alone_in_its_stack():
    # The second emitter is decoupled from everything, so delta = 0 is an
    # exact pole of its row; every other point must still solve.
    config = chiral_config(
        2,
        gamma=(EMISSION, 0.0),
        gamma_dr=(COUPLING, 0.0),
        gamma_ur=(COUPLING, 0.0),
        ddi_mode="off",
    )
    deltas = np.linspace(-2.0, 2.0, 5)
    out = solve_spectrum_point_batch(config, no_ddi(2), deltas)
    assert [isinstance(item, SolverError) for item in out] == [
        False, False, True, False, False
    ]
    assert out[2].delta == 0.0
    assert out[2].condition == np.inf
    for delta, sol in zip(deltas, out):
        if isinstance(sol, SolverError):
            continue
        ref = solve_dense(config, no_ddi(2), delta)
        for key in AMPLITUDES:
            assert np.max(np.abs(getattr(sol, key) - ref[key])) < 1e-12


def test_grid_longer_than_one_stack_matches_pointwise():
    config = symmetric_config(8, gamma=EMISSION, delta_dependent_phases=True)
    ddi = ddi_matrix(config)
    deltas = np.linspace(-120.0, 120.0, 601)
    assert deltas.size > 2 * (STACK_ELEMENTS // 8**2)  # three stacked solves
    batch = solve_spectrum_point_batch(config, ddi, deltas)
    assert [sol.delta for sol in batch] == deltas.tolist()
    for delta, sol in zip(deltas, batch):
        assert_same_solution(sol, solve_transport(config, ddi, delta))
    for i in (0, 255, 256, 600):
        ref = solve_dense(config, ddi, deltas[i])
        for key in AMPLITUDES:
            assert np.max(np.abs(getattr(batch[i], key) - ref[key])) < 1e-10


def rate_profiles(n: int, low: float):
    return st.lists(
        st.floats(min_value=low, max_value=20.0), min_size=n, max_size=n
    ).map(tuple)


@st.composite
def random_chains(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    dr, ur = draw(rate_profiles(n, 0.0)), draw(rate_profiles(n, 0.0))
    if draw(st.booleans()):
        dl, ul = draw(rate_profiles(n, 0.0)), draw(rate_profiles(n, 0.0))
    else:
        dl = ul = 0.0
    config = validate(
        SystemConfig(
            n_emitters=n,
            gamma=draw(rate_profiles(n, 0.1)),  # lossy: no real poles
            gamma_dr=dr, gamma_dl=dl, gamma_ur=ur, gamma_ul=ul,
            spacing=draw(st.floats(min_value=1.0, max_value=200.0)),
            delta_dependent_phases=draw(st.booleans()),
        )
    )
    exchange = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -30.0, 30.0, (n, n)
    )
    exchange = 0.5 * (exchange + exchange.T)
    np.fill_diagonal(exchange, 0.0)
    return config, DdiMatrix(exchange)


@settings(max_examples=60, deadline=None)
@given(
    chain=random_chains(),
    deltas=st.lists(
        st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=6
    ),
)
def test_batched_solver_matches_dense_oracle(chain, deltas):
    config, ddi = chain
    batch = solve_spectrum_point_batch(config, ddi, deltas)
    for delta, sol in zip(deltas, batch):
        assert_same_solution(sol, solve_transport(config, ddi, delta))
        ref = solve_dense(config, ddi, delta)
        for key in AMPLITUDES:
            assert np.max(np.abs(getattr(sol, key) - ref[key])) < 1e-10


def test_delta_dependent_phase_is_a_tiny_correction():
    fixed = chiral_config(2)
    corrected = chiral_config(2, delta_dependent_phases=True)
    ddi = ddi_matrix(fixed)
    a = solve_transport(fixed, ddi, 100.0).intensities["Tt"]
    b = solve_transport(corrected, ddi, 100.0).intensities["Tt"]
    assert a != b
    assert abs(a - b) < 1e-4


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    rates=st.tuples(*(st.floats(min_value=0.0, max_value=20.0) for _ in range(4))),
    spacing=st.floats(min_value=1.0, max_value=200.0),
    delta=st.floats(min_value=-50.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_lossless_flux_conservation(n, rates, spacing, delta, seed):
    dr, dl, ur, ul = rates
    config = validate(
        SystemConfig(
            n_emitters=n, gamma=0.0, gamma_dr=dr, gamma_dl=dl, gamma_ur=ur,
            gamma_ul=ul, spacing=spacing, lambda_sp=211.8, ddi_mode="off",
        )
    )
    exchange = np.random.default_rng(seed).uniform(-30.0, 30.0, (n, n))
    exchange = 0.5 * (exchange + exchange.T)
    np.fill_diagonal(exchange, 0.0)
    try:
        sol = solve_transport(config, DdiMatrix(exchange), delta)
    except SolverError:
        return  # isolated real pole of a lossless chain; the solver refuses it
    total = sum(v for k, v in sol.intensities.items() if k != "loss")
    assert total == pytest.approx(1.0, abs=1e-9)
    assert abs(sol.intensities["loss"]) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    gamma=st.floats(min_value=0.0, max_value=20.0),
    forward=st.tuples(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    ),
    delta=st.floats(min_value=-50.0, max_value=50.0),
)
def test_chiral_zero_backflow_property(n, gamma, forward, delta):
    dr, ur = forward
    config = validate(
        SystemConfig(n_emitters=n, gamma=gamma, gamma_dr=dr, gamma_ur=ur)
    )
    try:
        sol = solve_transport(config, ddi_matrix(config), delta)
    except SolverError:
        return
    assert np.all(sol.r == 0.0)
    assert np.all(sol.rt == 0.0)
    assert sol.intensities["loss"] >= -1e-9
