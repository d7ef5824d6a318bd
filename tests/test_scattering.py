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

from conftest import COUPLING, EMISSION, chiral_config, random_chains, symmetric_config
from dense_oracle import assemble_system, segment_amplitudes, solve_dense

#: Segment of each output port: after the last emitter or before the first.
PORTS = {"t": -1, "r": 0, "tt": -1, "rt": 0}
AMPLITUDES = tuple(PORTS)


def no_ddi(n: int) -> DdiMatrix:
    return DdiMatrix(np.zeros((n, n)))


def point_intensities(batch, i):
    return {key: column[i] for key, column in batch.intensities.items()}


def segments(config, solution):
    """Every segment's field amplitudes, (P, N), recovered from a solution's
    emitter amplitudes; its port amplitudes must be the outer segments, bit
    for bit.  Takes a batch or a ``solve_transport`` point."""
    fields = segment_amplitudes(
        config, np.atleast_1d(solution.delta), np.atleast_2d(solution.a)
    )
    for key, port in PORTS.items():
        assert np.array_equal(np.atleast_1d(getattr(solution, key)), fields[key][:, port])
    return fields


def assert_same_point(batch, i, sol):
    """Point i of a batched solution equals a one-point solve, bit for bit."""
    for key in ("a", *AMPLITUDES):
        assert np.array_equal(getattr(batch, key)[i], getattr(sol, key))
    assert point_intensities(batch, i) == sol.intensities


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
    assert sol.t == 1.0
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
    fields = segments(config, sol)
    assert np.all(fields["r"] == 0.0)
    assert np.all(fields["rt"] == 0.0)
    assert sol.intensities["R"] == 0.0
    assert sol.intensities["Rt"] == 0.0


def test_matches_single_emitter_closed_forms():
    grid = np.linspace(-100.0, 100.0, 401)
    sym = symmetric_config(1, gamma=EMISSION)
    chi = chiral_config(1)
    for delta in grid:
        num = solve_transport(sym, no_ddi(1), delta)
        ref = single_symmetric(delta, COUPLING, EMISSION)
        assert abs(num.t - ref.t) < 1e-10
        assert abs(num.r - ref.r) < 1e-10
        num = solve_transport(chi, no_ddi(1), delta)
        ref = single_chiral(delta, COUPLING, EMISSION)
        assert abs(num.t - ref.t) < 1e-10
        assert abs(num.tt - ref.tt) < 1e-10


def test_matches_two_emitter_closed_form_with_coupling():
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    for delta in np.linspace(-80.0, 80.0, 321):
        num = solve_transport(config, ddi, delta)
        ref = two_chiral(delta, COUPLING, EMISSION, ddi.values[0, 1], config.theta)
        assert abs(num.t - ref.t) < 1e-10
        assert abs(num.tt - ref.tt) < 1e-10


CLOSED_FORMS = {f.__name__: f for f in (single_symmetric, single_chiral, two_chiral)}


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from(sorted(CLOSED_FORMS)),
    coupling=st.floats(min_value=0.1, max_value=30.0),
    gamma=st.floats(min_value=0.1, max_value=20.0),  # lossy: no real poles
    exchange=st.floats(min_value=-40.0, max_value=40.0),
    spacing=st.floats(min_value=1.0, max_value=500.0),
    deltas=st.lists(st.floats(min_value=-200.0, max_value=200.0), min_size=1, max_size=8),
)
def test_batched_solver_matches_closed_forms(form, coupling, gamma, exchange, spacing,
                                             deltas):
    n = 2 if form == "two_chiral" else 1
    leftward = coupling if form == "single_symmetric" else 0.0
    config = validate(SystemConfig(
        n_emitters=n, gamma=gamma, gamma_dr=coupling, gamma_dl=leftward,
        gamma_ur=coupling, gamma_ul=leftward, spacing=spacing,
    ))
    # The exchange J and the phase theta enter only the two-emitter form.
    ddi = DdiMatrix([[0.0, exchange], [exchange, 0.0]]) if n == 2 else no_ddi(1)
    extra = (exchange, config.theta) if n == 2 else ()
    batch = solve_spectrum_point_batch(config, ddi, deltas)
    for i, delta in enumerate(deltas):
        ref = CLOSED_FORMS[form](delta, coupling, gamma, *extra)
        for key in AMPLITUDES:
            assert abs(getattr(batch, key)[i] - getattr(ref, key)) < 1e-10, (key, delta)


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
    assert sol_pair.t == pytest.approx(sol_lone.t, abs=1e-14)
    assert sol_pair.tt == pytest.approx(sol_lone.tt, abs=1e-14)
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
    assert point_intensities(singleton, 0) == solve_transport(config, ddi, 0.0).intensities
    assert batch.delta.tolist() == deltas
    forward = batch.intensities["Tt"].tolist()
    backward = solve_spectrum_point_batch(config, ddi, deltas[::-1]).intensities["Tt"]
    assert forward == backward.tolist()[::-1]


def test_batch_raises_at_the_failing_point():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
    match = r"^singular transport system at delta=\+0 "
    with pytest.raises(SolverError, match=match) as err:
        solve_spectrum_point_batch(config, no_ddi(1), [-1.0, 0.0, 1.0])
    assert err.value.delta == 0.0
    assert err.value.condition == np.inf
    # Either side of the pole the photon passes.
    out = solve_spectrum_point_batch(config, no_ddi(1), [-1.0, 1.0])
    assert out.intensities["T"].tolist() == [1.0, 1.0]


def test_non_finite_solution_never_passes_the_residual_check():
    # A subnormal pivot: LAPACK's reciprocal overflows and the amplitudes
    # come back NaN without a LinAlgError, so the residual is NaN too.
    config = validate(
        SystemConfig(n_emitters=1, gamma_ur=5e-324, gamma_ul=5e-324, ddi_mode="off")
    )
    with pytest.raises(SolverError) as err:
        solve_spectrum_point_batch(config, no_ddi(1), [0.0, 1.0])
    failure = err.value
    assert failure.delta == 0.0
    assert "non-finite solution" in str(failure)
    assert failure.condition is None  # cond() of this matrix is 1: no hint
    assert "condition" not in str(failure)
    assert solve_transport(config, no_ddi(1), 1.0).intensities["T"] == 1.0


def test_matrix_norm_beyond_the_float_range_fails_the_point():
    # The amplitudes solve, but |C_12| + |M_11| = 1.2e308 + 6e307 overflows,
    # so no backward error bounds them.
    config = chiral_config(2, gamma_ul=1.2e308)
    with pytest.raises(SolverError, match=r"^transport system beyond the float range"
                       r" at delta=\+0$") as err:
        solve_spectrum_point_batch(config, ddi_matrix(config), [0.0, 1.0])
    assert err.value.condition is None
    assert solve_transport(chiral_config(2, gamma_ul=1e308), ddi_matrix(config), 0.0)


def test_overflowing_intensities_fail_the_point():
    # Rates from 5e-324 to 1.2e308 pass the backward-error check at this
    # point, but |t|^2 overflows: the point fails instead of returning inf.
    config = validate(SystemConfig(
        n_emitters=4, gamma=32.75, gamma_dr=11.03,
        gamma_ur=(5e-324, 1.3307240419230212e46, 1.0, 1.1962991164495308e308),
        spacing=5.0, lambda_sp=33.0, dipole_angle=5e-324,
    ))
    with pytest.raises(SolverError, match=r"^non-finite solution of the transport"
                       r" system at delta=\+0$"):
        solve_spectrum_point_batch(config, ddi_matrix(config), [0.0])


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
    with pytest.raises(SolverError, match=r"^singular transport system") as err:
        solve_spectrum_point_batch(config, no_ddi(2), deltas)
    assert err.value.delta == 0.0
    assert err.value.condition == np.inf
    regular = np.delete(deltas, 2)
    out = solve_spectrum_point_batch(config, no_ddi(2), regular)
    fields = segments(config, out)
    for i, delta in enumerate(regular):
        ref = solve_dense(config, no_ddi(2), delta)
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-12


@pytest.mark.parametrize(
    "deltas, pole", [([-1.0, 0.5, 1.0], -1.0), ([1.0, 0.5, -1.0], 1.0)],
    ids=["ascending", "descending"],
)
def test_first_failure_in_input_order_is_raised(deltas, pole):
    # Lossless and decoupled from the guides, the pair's coupling J makes
    # -delta + J exactly singular at both delta = -1 and delta = +1.
    config = validate(SystemConfig(n_emitters=2, ddi_mode="manual", ddi_strength=1.0))
    ddi = ddi_matrix(config)
    assert ddi.values[0, 1] == 1.0
    with pytest.raises(SolverError, match="^singular transport system") as err:
        solve_spectrum_point_batch(config, ddi, deltas)
    assert err.value.delta == pole
    assert err.value.condition == np.inf


def test_failure_past_the_first_stack_names_its_detuning():
    # The last emitter is decoupled, so delta = 0 is the chain's only pole.
    config = chiral_config(
        8,
        gamma=(EMISSION,) * 7 + (0.0,),
        gamma_dr=(COUPLING,) * 7 + (0.0,),
        gamma_ur=(COUPLING,) * 7 + (0.0,),
        ddi_mode="off",
    )
    deltas = np.arange(-300.0, 101.0)
    pole = int(np.flatnonzero(deltas == 0.0)[0])
    assert pole >= STACK_ELEMENTS // 8**2  # outside the first stacked solve
    with pytest.raises(SolverError, match="^singular transport system") as err:
        solve_spectrum_point_batch(config, no_ddi(8), deltas)
    assert err.value.delta == 0.0
    assert err.value.condition == np.inf


def test_grid_longer_than_one_stack_matches_pointwise():
    config = symmetric_config(8, gamma=EMISSION, delta_dependent_phases=True)
    ddi = ddi_matrix(config)
    deltas = np.linspace(-120.0, 120.0, 601)
    assert deltas.size > 2 * (STACK_ELEMENTS // 8**2)  # three stacked solves
    batch = solve_spectrum_point_batch(config, ddi, deltas)
    assert batch.delta.tolist() == deltas.tolist()
    for i, delta in enumerate(deltas):
        assert_same_point(batch, i, solve_transport(config, ddi, delta))
    fields = segments(config, batch)
    for i in (0, 255, 256, 600):
        ref = solve_dense(config, ddi, deltas[i])
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-10


class RecordingSolve:
    """Stands in for ``np.linalg.solve`` and keeps every stacked system it
    was given, with its solution."""

    def __init__(self):
        self.solve, self.systems = np.linalg.solve, []

    def __call__(self, matrices, rhs):
        x = self.solve(matrices, rhs)
        self.systems.append((matrices.copy(), np.array(rhs), x))
        return x


def test_carrier_phase_grid_shares_one_coupling_block():
    config = symmetric_config(8, gamma=EMISSION)
    ddi = ddi_matrix(config)
    deltas = np.linspace(-120.0, 120.0, 601)
    size = STACK_ELEMENTS // 8**2
    assert deltas.size > 2 * size  # three stacked solves
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        batch = solve_spectrum_point_batch(config, ddi, deltas)
    stacks = [matrices for matrices, _, _ in recorder.systems]
    assert [len(m) for m in stacks] == [size, size, deltas.size - 2 * size]
    # Every point's system is the same coupling block plus its own diagonal.
    matrices = np.concatenate(stacks)
    diagonal = np.eye(8, dtype=bool)
    assert (matrices[:, ~diagonal] == matrices[0, ~diagonal]).all()
    assert np.array_equal(matrices[:, diagonal].real, -deltas[:, None] * np.ones(8))
    for i, delta in enumerate(deltas):
        assert_same_point(batch, i, solve_transport(config, ddi, delta))
    fields = segments(config, batch)
    for i in (0, size - 1, size, 2 * size - 1, 2 * size, 600):
        ref = solve_dense(config, ddi, deltas[i])
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    chain=random_chains(),
    deltas=st.lists(
        st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=6
    ),
)
def test_residual_is_the_dense_normwise_backward_error(chain, deltas):
    # |M x - b|_inf / (||M||_inf ||x||_inf + ||b||_inf) with every norm taken
    # over the full systems the solver factorised.
    config, ddi = chain
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        batch = solve_spectrum_point_batch(config, ddi, deltas)
    ((matrices, rhs, x),) = recorder.systems
    defect = np.abs(matrices @ x - rhs).max(axis=(1, 2))
    norm = np.abs(matrices).sum(axis=2).max(axis=1)
    scale = norm * np.abs(x).max(axis=(1, 2)) + np.abs(rhs).max(axis=(1, 2))
    dense = np.divide(defect, scale, out=defect.copy(), where=scale > 0.0)
    np.testing.assert_allclose(batch.residual, dense, rtol=1e-12, atol=0.0)


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
    fields = segments(config, batch)
    for i, delta in enumerate(deltas):
        assert_same_point(batch, i, solve_transport(config, ddi, delta))
        ref = solve_dense(config, ddi, delta)
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-10


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
    fields = segments(config, sol)
    assert np.all(fields["r"] == 0.0)
    assert np.all(fields["rt"] == 0.0)
    assert sol.intensities["loss"] >= -1e-9
