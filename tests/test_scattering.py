import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from photon_router import (
    DdiMatrix,
    SolverError,
    SystemConfig,
    ddi_matrix,
    find_peaks,
    scan,
    solve_spectrum_point_batch,
    validate,
)
from photon_router import scattering
from photon_router.scattering import (
    FLUX_IDENTITY_LIMIT,
    FLUX_TOLERANCE,
    INTENSITY_KEYS,
    MODAL_ERROR_FLOOR,
    RESIDUAL_LIMIT,
    STACK_ELEMENTS,
    _carrier_norm,
    _chain,
    _Chains,
    _intensity_errors,
    _modes,
    _near,
    _port_sum,
    _row_max,
    _rows,
    _solve_chains,
    _swept,
)

from closed_forms import single_chiral, single_symmetric, two_chiral
from conftest import (
    COUPLING,
    EMISSION,
    RecordingSolve,
    chiral_config,
    isolated_pair,
    random_chains,
    replace,
    symmetric_config,
)
from dense_oracle import (
    assemble_system,
    collective_modes,
    pole_residues,
    segment_amplitudes,
    solve_dense,
)
from refine_oracle import intensity_errors

#: Segment of each output port: after the last emitter or before the first.
PORTS = {"t": -1, "r": 0, "tt": -1, "rt": 0}
AMPLITUDES = tuple(PORTS)
EPS = np.finfo(float).eps

#: Grid solvers: the LU batch, and the scan, which solves carrier-phase
#: grids from the chain's modes and re-solves by LU.
SOLVERS = pytest.mark.parametrize(
    "solve", [solve_spectrum_point_batch, scan], ids=["lu", "scan"]
)


def no_ddi(n: int) -> DdiMatrix:
    return DdiMatrix(np.zeros((n, n)))


def point_intensities(batch, i):
    return {key: column[i] for key, column in batch.intensities.items()}


def segments(config, solution):
    """Every segment's field amplitudes, (P, N), recovered from a solution's
    emitter amplitudes; its port amplitudes must be the outer segments, bit
    for bit."""
    fields = segment_amplitudes(config, solution.delta, solution.a)
    for key, port in PORTS.items():
        assert np.array_equal(getattr(solution, key), fields[key][:, port])
    return fields


def assert_same_point(batch, i, sol):
    """Point i of a batched solution equals a one-point solve, bit for bit."""
    for key in ("a", *AMPLITUDES):
        assert np.array_equal(getattr(batch, key)[i], getattr(sol, key)[0])
    assert point_intensities(batch, i) == point_intensities(sol, 0)


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


def test_detunings_of_more_than_one_dimension_rejected():
    config = chiral_config(2)
    with pytest.raises(ValueError, match=r"1-D list, got shape \(1, 2\)"):
        solve_spectrum_point_batch(config, no_ddi(2), [[1.0, 2.0]])
    empty = solve_spectrum_point_batch(config, no_ddi(2), [])
    assert empty.delta.shape == (0,) and empty.a.shape == (0, 2)
    assert all(column.shape == (0,) for column in empty.intensities.values())


def test_decoupled_emitter_passes_photon_through():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
    sol = solve_spectrum_point_batch(config, no_ddi(1), [0.5])
    assert sol.t == 1.0
    assert sol.a[0] == 0.0
    assert sol.intensities["T"] == 1.0
    assert sol.intensities["loss"] == 0.0
    assert sol.residual == 0.0  # zero defect at zero scale


def test_decoupled_emitter_is_singular_at_resonance():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off"))
    with pytest.raises(SolverError) as err:
        solve_spectrum_point_batch(config, no_ddi(1), [0.0])
    assert err.value.delta == 0.0
    assert "delta=+0" in str(err.value)
    assert err.value.condition is not None


def test_loss_floor_resolves_the_pole():
    config = validate(SystemConfig(n_emitters=1, ddi_mode="off", gamma=1e-9))
    sol = solve_spectrum_point_batch(config, no_ddi(1), [0.0])
    assert sol.intensities["T"] == 1.0


def test_single_symmetric_resonance_splits_evenly():
    config = symmetric_config(1)
    sol = solve_spectrum_point_batch(config, no_ddi(1), [0.0])
    for key in ("T", "R", "Tt", "Rt"):
        assert sol.intensities[key] == pytest.approx(0.25, abs=1e-12)


def test_two_chiral_uncoupled_lossless_landmarks():
    config = chiral_config(2, gamma=0.0, ddi_mode="off")
    at_resonance = solve_spectrum_point_batch(config, no_ddi(2), [0.0])
    assert at_resonance.intensities["T"] == pytest.approx(1.0, abs=1e-12)
    assert at_resonance.intensities["Tt"] == pytest.approx(0.0, abs=1e-12)
    for sign in (+1.0, -1.0):
        split = solve_spectrum_point_batch(config, no_ddi(2), [sign * COUPLING])
        assert split.intensities["Tt"] == pytest.approx(1.0, abs=1e-12)
        assert split.intensities["T"] == pytest.approx(0.0, abs=1e-12)


def test_chiral_backflow_is_exactly_zero():
    config = chiral_config(4)
    sol = solve_spectrum_point_batch(config, ddi_matrix(config), [17.3])
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
        num = solve_spectrum_point_batch(sym, no_ddi(1), [delta])
        ref = single_symmetric(delta, COUPLING, EMISSION)
        assert abs(num.t - ref.t) < 1e-10
        assert abs(num.r - ref.r) < 1e-10
        num = solve_spectrum_point_batch(chi, no_ddi(1), [delta])
        ref = single_chiral(delta, COUPLING, EMISSION)
        assert abs(num.t - ref.t) < 1e-10
        assert abs(num.tt - ref.tt) < 1e-10


def test_matches_two_emitter_closed_form_with_coupling():
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    for delta in np.linspace(-80.0, 80.0, 321):
        num = solve_spectrum_point_batch(config, ddi, [delta])
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
    a = solve_spectrum_point_batch(scalar, ddi, [12.0])
    b = solve_spectrum_point_batch(per_emitter, ddi, [12.0])
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
    sol_pair = solve_spectrum_point_batch(pair, no_ddi(2), [3.7])
    sol_lone = solve_spectrum_point_batch(lone, no_ddi(1), [3.7])
    assert sol_pair.t == pytest.approx(sol_lone.t, abs=1e-14)
    assert sol_pair.tt == pytest.approx(sol_lone.tt, abs=1e-14)
    assert sol_pair.a[0, 1] == 0.0


def test_residual_recorded_and_small():
    config = chiral_config(5)
    sol = solve_spectrum_point_batch(config, ddi_matrix(config), [40.0])
    assert 0.0 <= sol.residual < 1e-12


def test_far_detuned_transparency_for_long_chain():
    config = chiral_config(30)
    sol = solve_spectrum_point_batch(config, ddi_matrix(config), [1e4])
    assert sol.intensities["T"] > 0.99
    assert sol.residual < 1e-10


def test_batch_matches_pointwise_and_preserves_order():
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    deltas = [-5.0, 0.0, 12.5]
    batch = solve_spectrum_point_batch(config, ddi, deltas)
    singleton = solve_spectrum_point_batch(config, ddi, [0.0])
    again = solve_spectrum_point_batch(config, ddi, [0.0])
    assert point_intensities(singleton, 0) == again.intensities
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
    assert solve_spectrum_point_batch(config, no_ddi(1), [1.0]).intensities["T"] == 1.0


def test_matrix_norm_beyond_the_float_range_fails_the_point():
    # The amplitudes solve, but |C_12| + |M_11| = 1.2e308 + 6e307 overflows,
    # so no backward error bounds them.
    config = chiral_config(2, gamma_ul=1.2e308)
    with pytest.raises(SolverError, match=r"^transport system beyond the float range"
                       r" at delta=\+0$") as err:
        solve_spectrum_point_batch(config, ddi_matrix(config), [0.0, 1.0])
    assert err.value.condition is None
    assert solve_spectrum_point_batch(chiral_config(2, gamma_ul=1e308), ddi_matrix(config), [0.0])


#: A chain whose rates span the float range: its backward error passes at
#: points where its intensities overflow (delta = 0, -48.2) or break the flux
#: balance (delta = -1, 3).
SPREAD_RATES = SystemConfig(
    n_emitters=4, gamma=32.75, gamma_dr=11.03,
    gamma_ur=(5e-324, 1.3307240419230212e46, 1.0, 1.1962991164495308e308),
    spacing=5.0, lambda_sp=33.0, dipole_angle=5e-324,
)


def test_overflowing_intensities_fail_the_point():
    # Rates from 5e-324 to 1.2e308 pass the backward-error check at this
    # point, but |t|^2 overflows: the point fails instead of returning inf.
    config = validate(SPREAD_RATES)
    with pytest.raises(SolverError, match=r"^non-finite solution of the transport"
                       r" system at delta=\+0$"):
        solve_spectrum_point_batch(config, ddi_matrix(config), [0.0])


def test_overflowing_intensities_fail_in_input_order():
    # A fifth, silent emitter makes delta = 0 singular; the overflowing
    # intensities at -48.2 come first in input order, so they are raised.
    config = validate(SPREAD_RATES)
    silent = validate(dataclasses.replace(
        config, n_emitters=5, gamma=(32.75,) * 4 + (0.0,), gamma_dr=(11.03,) * 4 + (0.0,),
        gamma_ur=config.gamma_ur + (0.0,),
    ))
    exchange = np.zeros((5, 5))
    exchange[:4, :4] = ddi_matrix(config).values
    match = r"^non-finite solution of the transport system at delta=-48\.2$"
    for deltas in ([-48.2], [-48.2, 0.0]):
        with pytest.raises(SolverError, match=match):
            solve_spectrum_point_batch(silent, DdiMatrix(exchange), deltas)
    with pytest.raises(SolverError, match=r"^singular transport system at delta=\+0 "):
        solve_spectrum_point_batch(silent, DdiMatrix(exchange), [0.0])


def test_flux_balance_violation_fails_the_point():
    # Finite amplitudes with a backward error of 1e-172, yet T = 1.03
    # at delta = 3 and T = 5.07 at delta = -1: more photon out than in.
    config = validate(SPREAD_RATES)
    with pytest.raises(SolverError, match=r"^flux balance violated \(loss -0\.0314\)"
                       r" at delta=\+3$") as err:
        solve_spectrum_point_batch(config, ddi_matrix(config), [3.0, -1.0])
    assert err.value.condition is None


def test_loss_that_is_not_the_radiated_power_fails_the_point():
    # A positive loss of 0.762 at delta = -0.5, but the emitters radiate
    # sum_j gamma_j |A_j|^2 = 0.810 into non-guided modes: the identity fails.
    config = validate(SPREAD_RATES)
    with pytest.raises(SolverError, match=r"^flux balance violated \(loss 0\.762\)"
                       r" at delta=-0\.5$") as err:
        solve_spectrum_point_batch(config, ddi_matrix(config), [-0.5])
    assert err.value.condition is None


@settings(max_examples=25, deadline=None)
@given(chain=random_chains(), offset=st.sampled_from((0.0, 1e-7, -1e-3)))
def test_loss_is_the_power_the_emitters_radiate(chain, offset):
    # loss = 1 - T - R - Tt - Rt = sum_j gamma_j |A_j|^2 on random lossy chains
    # at and next to their collective modes, with either phase convention.
    config, ddi = chain
    deltas = collective_modes(config, ddi).real + offset
    solution = solve_spectrum_point_batch(config, ddi, deltas)
    gamma = config.rate_profile("gamma")
    total = gamma + sum(config.rate_profile(name) for name in
                        ("gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul"))
    weight = np.abs(solution.a) ** 2
    error = np.abs(solution.intensities["loss"] - weight @ gamma)
    assert np.all(error <= FLUX_IDENTITY_LIMIT * (1.0 + weight @ total))


OFFSETS = (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5, 1e-3, -1e-3)


@pytest.mark.parametrize(
    "phases, solve",
    [(False, solve_spectrum_point_batch), (True, solve_spectrum_point_batch),
     (False, scan), (True, scan)],
    ids=["carrier", "delta-dependent", "carrier-scan", "delta-dependent-scan"],
)
@pytest.mark.parametrize(
    "make, n", [(chiral_config, 10), (chiral_config, 30), (symmetric_config, 30),
                (symmetric_config, 100)],
    ids=["N10-chiral", "N30-chiral", "N30-symmetric", "N100-symmetric"],
)
def test_lossless_reference_chains_pass_the_flux_check_at_their_modes(make, n, phases, solve):
    # The chains that set FLUX_TOLERANCE: the worst loss, next to the
    # narrowest subradiant modes, stays 100x inside it, whether the LU or
    # the modes (with refinement sweeps, for delta-dependent phases) solve.
    config = make(n, gamma=0.0, delta_dependent_phases=phases)
    ddi = ddi_matrix(config)
    deltas = np.unique(np.add.outer(OFFSETS, collective_modes(config, ddi).real))
    loss = solve(config, ddi, deltas).intensities["loss"]
    assert loss.min() > -FLUX_TOLERANCE / 100


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    rates=st.tuples(*(st.floats(min_value=0.0, max_value=20.0) for _ in range(4))),
    spacing=st.floats(min_value=1.0, max_value=200.0),
    phases=st.booleans(),
    offset=st.sampled_from(OFFSETS),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_lossless_chains_never_trip_the_flux_check(n, rates, spacing, phases, offset, seed):
    dr, dl, ur, ul = rates
    config = validate(SystemConfig(
        n_emitters=n, gamma=0.0, gamma_dr=dr, gamma_dl=dl, gamma_ur=ur, gamma_ul=ul,
        spacing=spacing, delta_dependent_phases=phases,
    ))
    exchange = np.random.default_rng(seed).uniform(-30.0, 30.0, (n, n))
    ddi = DdiMatrix(0.5 * (exchange + exchange.T) * (1.0 - np.eye(n)))
    for delta in collective_modes(config, ddi).real + offset:
        try:
            solve_spectrum_point_batch(config, ddi, [delta])
        except SolverError as err:  # a real pole may be singular, never unbalanced
            assert not str(err).startswith("flux balance"), str(err)


@SOLVERS
def test_singular_point_fails_alone_in_its_stack(solve):
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
        solve(config, no_ddi(2), deltas)
    assert err.value.delta == 0.0
    assert err.value.condition == np.inf
    regular = np.delete(deltas, 2)
    out = solve(config, no_ddi(2), regular)
    fields = segments(config, out)
    for i, delta in enumerate(regular):
        ref = solve_dense(config, no_ddi(2), delta)
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-12


@pytest.mark.parametrize(
    "deltas, pole", [([-1.0, 0.5, 1.0], -1.0), ([1.0, 0.5, -1.0], 1.0)],
    ids=["ascending", "descending"],
)
@SOLVERS
def test_first_failure_in_input_order_is_raised(solve, deltas, pole):
    # Lossless and decoupled from the guides, the pair's coupling J makes
    # -delta + J exactly singular at both delta = -1 and delta = +1.
    config = validate(SystemConfig(n_emitters=2, ddi_mode="manual", ddi_strength=1.0))
    ddi = ddi_matrix(config)
    assert ddi.values[0, 1] == 1.0
    with pytest.raises(SolverError, match="^singular transport system") as err:
        solve(config, ddi, deltas)
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
        assert_same_point(batch, i, solve_spectrum_point_batch(config, ddi, [delta]))
    fields = segments(config, batch)
    for i in (0, 255, 256, 600):
        ref = solve_dense(config, ddi, deltas[i])
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-10


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
        assert_same_point(batch, i, solve_spectrum_point_batch(config, ddi, [delta]))
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
        assert_same_point(batch, i, solve_spectrum_point_batch(config, ddi, [delta]))
        ref = solve_dense(config, ddi, delta)
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-10


def at_carrier_phases(chain):
    config, ddi = chain
    return replace(config, delta_dependent_phases=False), ddi


#: Strictly ascending detuning grids, as ``scan`` takes them.
scan_grids = st.lists(
    st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=6, unique=True
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(chain=random_chains(), phases=st.booleans(), deltas=scan_grids)
def test_modal_scan_matches_the_lu_and_the_dense_oracle(chain, phases, deltas):
    # A scan solves A = V (w / (lambda - delta)) from the chain's carrier-phase
    # modes, then refinement sweeps where the phases depend on delta; the LU
    # batch and the 5N system are independent of them.
    config, ddi = chain
    config = replace(config, delta_dependent_phases=phases)
    modal = scan(config, ddi, deltas)
    lu = solve_spectrum_point_batch(config, ddi, deltas)
    assert (modal.residual <= RESIDUAL_LIMIT).all()
    fields = segments(config, modal)
    for key in ("a", *AMPLITUDES):
        assert np.max(np.abs(getattr(modal, key) - getattr(lu, key))) < 1e-10
    for i, delta in enumerate(deltas):
        ref = solve_dense(config, ddi, delta)
        assert np.max(np.abs(modal.a[i] - ref["a"])) < 1e-10
        for key in AMPLITUDES:
            assert np.max(np.abs(fields[key][i] - ref[key])) < 1e-10


#: A symmetric N = 30 chain at 10 um spacing: theta = 297 rad, so phases
#: j * step phase up to 8600 rad, whose rounding (N |phi| eps) a matrix
#: applied at other phases than the LU's would show.
WIDE_CHAIN = symmetric_config(
    30, gamma=EMISSION, spacing=10_000.0, delta_dependent_phases=True
)


@settings(max_examples=60, deadline=None)
@given(chain=random_chains(), phases=st.booleans(), deltas=scan_grids)
@example(chain=(WIDE_CHAIN, ddi_matrix(WIDE_CHAIN)), phases=True, deltas=[-50.0, -3.0, 17.0, 60.0])
def test_modal_residual_is_the_dense_normwise_backward_error(chain, phases, deltas):
    # The scan's residual, taken as |M(delta) A - b| with M(delta) applied
    # from the chain's blocks at each point's own phases, is the backward
    # error of its amplitudes in the explicitly formed M(delta), the system
    # the LU batch factorises, up to rounding.
    config, ddi = chain
    config = replace(config, delta_dependent_phases=phases)
    batch = scan(config, ddi, deltas)
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        solve_spectrum_point_batch(config, ddi, deltas)
    ((matrices, rhs, _),) = recorder.systems
    x = batch.a[..., None]
    defect = np.abs(matrices @ x - rhs).max(axis=(1, 2))
    norm = np.abs(matrices).sum(axis=2).max(axis=1)
    scale = norm * np.abs(x).max(axis=(1, 2)) + np.abs(rhs).max(axis=(1, 2))
    dense = np.divide(defect, scale, out=defect.copy(), where=scale > 0.0)
    if not phases:
        np.testing.assert_allclose(batch.residual, dense, rtol=0.0, atol=4 * EPS)
        return
    # With delta-dependent phases the residual takes ||M||_inf from below,
    # so it bounds the backward error from above.  The sweeps apply the LU's
    # matrix in another order of its N-term products, so the two differ by
    # up to N eps, "rounding" here; the sweeps end near eps, so both sit at
    # that level.  Measured over 1,200 random chains: dense - residual
    # <= 0.41 rounding, and residual <= 0.50 max(dense, rounding).
    rounding = EPS * config.n_emitters
    assert np.all(batch.residual >= dense - rounding)
    assert np.all(batch.residual <= 2 * np.maximum(dense, rounding))


@settings(max_examples=60, deadline=None)
@given(
    chain=random_chains(),
    gamma0=st.floats(min_value=1.0, max_value=1e8),
    deltas=scan_grids,
)
def test_norm_bound_lies_below_the_row_sums(chain, gamma0, deltas):
    # The modal points' norm: C's carrier-phase row sums less
    # |Delta| sum_k G_jk |j - k|, never above the row sums of C(delta) itself,
    # for step-phase drifts Delta from 0 up to tens of rad.
    config, ddi = chain
    config = replace(config, delta_dependent_phases=True, gamma0_mhz=gamma0)
    chains = _chain(config, ddi)
    steps = np.array([config.step_phase(d) for d in deltas])
    _, exact = chains.coupling(chains.phases(steps), ddi.values)
    spread = chains.spread
    bound = chains.carrier[2] - np.abs(steps - config.theta)[:, None] * spread
    assert np.all(bound <= exact * (1 + 4 * config.n_emitters * EPS))


def test_reference_grid_is_solved_from_one_decomposition():
    # The 30-emitter reference chain: one solve, V^-1; no point of the
    # 2001-point grid needs the LU, and all agree with it.
    config = chiral_config(30)
    ddi = ddi_matrix(config)
    grid = np.linspace(-300.0, 300.0, 2001)
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        modal = scan(config, ddi, grid)
    ((vectors, _, _),) = recorder.systems
    assert vectors.shape == (1, 30, 30)
    lu = solve_spectrum_point_batch(config, ddi, grid)
    for key in INTENSITY_KEYS:
        assert np.max(np.abs(modal.intensities[key] - lu.intensities[key])) < 1e-12


def test_delta_dependent_reference_grid_is_solved_from_one_decomposition():
    # The benchmark's N = 100 symmetric chain with delta-dependent phases:
    # two solves, V^-1 and w of each parity half (50 x 50, against [I | b]:
    # the chain is its own mirror image), and refinement sweeps from the
    # carrier-phase modes; no point of the 251-point grid needs the LU, and
    # all agree with it.
    config = symmetric_config(100, gamma=EMISSION, delta_dependent_phases=True)
    ddi = ddi_matrix(config)
    grid = np.linspace(-100.0, 100.0, 251)
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        modal = scan(config, ddi, grid)
    assert len(recorder.systems) == 2
    for vectors, rhs, _ in recorder.systems:
        assert vectors.shape == (1, 50, 50) and rhs.shape == (1, 50, 51)
    assert (modal.residual <= 100 * EPS).all()
    lu = solve_spectrum_point_batch(config, ddi, grid)
    for key in INTENSITY_KEYS:
        assert np.max(np.abs(modal.intensities[key] - lu.intensities[key])) < 1e-12


def test_drift_beyond_the_sweeps_is_solved_by_the_lu_alone():
    # Gamma0 = 5e6 MHz turns each step's phase by 0.2-0.6 rad over this grid:
    # far from the carrier phases, so no sweep converges and every point is
    # the LU's, as the batch solves it.
    config = symmetric_config(30, gamma=EMISSION, delta_dependent_phases=True, gamma0_mhz=5e6)
    ddi = ddi_matrix(config)
    deltas = np.linspace(20.0, 60.0, 41)
    assert abs(config.step_phase(deltas[0]) - config.theta) > 0.2
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        modal = scan(config, ddi, deltas)
    lu_points = [len(m) for m, rhs, _ in recorder.systems if rhs.shape[-1] == 1]
    assert sum(lu_points) == deltas.size
    lu = solve_spectrum_point_batch(config, ddi, deltas)
    for key in ("a", *AMPLITUDES, "residual"):
        assert np.array_equal(getattr(modal, key), getattr(lu, key))
    for key in INTENSITY_KEYS:
        assert np.array_equal(modal.intensities[key], lu.intensities[key])


#: Points of one modal stack at N = 30: its (P, N) arrays hold at most a
#: quarter of ``STACK_ELEMENTS`` elements each.
MODAL_STACK_30 = STACK_ELEMENTS // (4 * 30)


@pytest.mark.blas_bits
@pytest.mark.parametrize("piece", [1, MODAL_STACK_30, STACK_ELEMENTS // 30**2, 250])
def test_modal_stacks_are_solved_independently(piece):
    # A grid of several modal stacks has the bits of scanning each piece of
    # it alone, whatever the piece size: what makes the stack size free.
    # Each point takes its own sweeps, so this holds with them too; a point
    # scanned alone sweeps as one row, over every 17th point of the grid.
    for phases in (False, True):
        config = chiral_config(30, delta_dependent_phases=phases)
        ddi = ddi_matrix(config)
        grid = np.linspace(-300.0, 300.0, 5 * MODAL_STACK_30 + 17)[:: 17 if piece == 1 else 1]
        whole = scan(config, ddi, grid)
        parts = [scan(config, ddi, grid[k : k + piece]) for k in range(0, grid.size, piece)]
        for key in ("a", *AMPLITUDES, "residual"):
            joined = np.concatenate([getattr(p, key) for p in parts])
            assert np.array_equal(getattr(whole, key), joined)
        for key in INTENSITY_KEYS:
            joined = np.concatenate([p.intensities[key] for p in parts])
            assert np.array_equal(whole.intensities[key], joined)


@pytest.mark.blas_bits
@pytest.mark.parametrize("n", [2, 30, 100, 300])
def test_row_products_do_not_depend_on_the_rows_beside_them(n):
    # Every row of a block of a stack has the bits of that row of the whole
    # stack's products, whatever the block's size and offset, a lone row
    # included: for a shared matrix, and for per-chain matrices over two long
    # runs of rows, many short ones, or runs that skip chains (as a sweep's
    # shrinking subsets do) with partial head and tail runs, all of a
    # stack's chains sharing one zero-padded stacked matmul.
    rng = np.random.default_rng(n)
    matrices = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
    vectors = rng.standard_normal((300, n)) + 1j * rng.standard_normal((300, n))
    long = np.repeat([0, 1], [200, 100])
    short = np.repeat(np.arange(12), [1, 2, 1, 3, 1, 1, 2, 5, 1, 1, 4, 1])
    skipping = np.repeat([0, 2, 3, 7], [37, 100, 100, 63])
    products = [(lambda x, c: _rows(matrices[1], x), np.ones(300, dtype=int))]
    products += [(lambda x, c: _rows(matrices, x, c), chain) for chain in (long, short, skipping)]
    for product, chain in products:
        p = len(chain)
        whole = product(vectors[:p], chain)
        expected = np.einsum("pjk,pk->pj", matrices[chain], vectors[:p])
        assert np.allclose(whole, expected, rtol=0.0, atol=1e-10)
        for size in [*range(1, 71), 136, 256]:
            for start in (0, 1, 3, 37, 199, p - size):  # 199: across the long runs
                block = slice(start, start + size)
                if 0 <= start <= p - size:
                    assert np.array_equal(product(vectors[block], chain[block]), whole[block])


@pytest.mark.blas_bits
@pytest.mark.parametrize("n", [2, 30])
def test_row_products_written_in_place_have_the_fresh_products_bits(n):
    # A product written into a given buffer, a view of a larger array as the
    # solver's are, is the fresh product bit for bit: for one chain, several
    # chains, and a lone row, which is padded to two.
    rng = np.random.default_rng(n)
    matrices = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    vectors = rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))
    several = np.repeat([0, 1, 3], [20, 1, 39])
    for chain in (None, np.zeros(60, dtype=int), several):
        shared = matrices[2] if chain is None else matrices
        for rows in (slice(0, 60), slice(5, 6), slice(20, 22)):
            c = None if chain is None else chain[rows]
            fresh = _rows(shared, vectors[rows], c)
            buffer = np.full((70, n), np.nan, dtype=complex)
            out = buffer[3 : 3 + len(vectors[rows])]
            assert _rows(shared, vectors[rows], c, out=out) is out
            assert out.tobytes() == fresh.tobytes()


@pytest.mark.blas_bits
def test_sweeps_read_whole_arrays_with_the_bits_of_gathered_ones(monkeypatch):
    # A chiral N = 30 stack at delta-dependent phases whose points take one
    # to four sweeps, one of them with its gaps lambda - delta scaled by 0.3,
    # so that its first sweep raises its backward error and is dropped.  Its
    # first sweep reads whole arrays, as every point still sweeps; with one
    # more point that ends at its start (an inf norm gives it backward error
    # 0), every sweep gathers its points instead.  The stack's points take
    # the same sweeps and bits either way.
    config = chiral_config(30, delta_dependent_phases=True)
    stacks = []
    monkeypatch.setattr(scattering, "_swept", lambda *args: stacks.append(args) or _swept(*args))
    scan(config, ddi_matrix(config), np.linspace(-300.0, 300.0, 41))
    chains, chain, *per_point = stacks[0]
    per_point[2] = per_point[2].copy()
    per_point[2][7] *= 0.3  # the gaps
    products, rows = [], _rows

    def counted(*args, **kwargs):
        products.append(len(args[1]))
        return rows(*args, **kwargs)

    monkeypatch.setattr(scattering, "_rows", counted)
    alone = []
    for i in range(len(chain)):
        products.clear()
        _swept(chains, chain[i : i + 1], *(values[i : i + 1] for values in per_point))
        alone.append(len(products) // 5 - 1)  # five products a sweep, and the start
    assert sorted(set(alone)) == [1, 2, 3, 4]
    products.clear()
    whole = _swept(chains, chain, *per_point)
    viewed = len(products)
    extended = [np.concatenate([values, values[:1]]) for values in per_point]
    extended[3][-1] = np.inf  # the norm
    products.clear()
    gathered = _swept(chains, np.append(chain, chain[0]), *extended)
    assert len(products) == viewed == 5 * (1 + max(alone))
    assert products[5] == len(chain)  # the first sweep, gathered
    assert gathered[2][-1]  # the extra point converged at its start
    assert alone[7] == 1 and not whole[2][7]  # the scaled point's sweep was dropped
    for mine, theirs in zip(whole, gathered):
        assert mine.tobytes() == theirs[:-1].tobytes()


@st.composite
def rate_groups(draw):
    """A random chain whose emitters share a few total rates (G >= 1), or
    have their own (random_chains), as one to three chains of it."""
    config, ddi = draw(random_chains())
    n = config.n_emitters
    if draw(st.booleans()):
        gamma = tuple(draw(st.lists(st.sampled_from([0.5, 3.0, 6.86]), min_size=n, max_size=n)))
        config = replace(config, gamma=gamma, gamma_dr=1.5, gamma_dl=0.25, gamma_ur=1.5, gamma_ul=0.25)
    copies = draw(st.integers(min_value=1, max_value=3))
    return _Chains([config] * copies, np.array([ddi.values * (1.0 + c) for c in range(copies)]))


@settings(max_examples=80, deadline=None)
@given(
    chains=rate_groups(),
    deltas=st.lists(st.floats(min_value=-500.0, max_value=500.0), min_size=1, max_size=12),
    odd=st.lists(st.sampled_from([np.nan, np.inf]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_rate_norm_is_the_row_sums_norm_bit_for_bit(chains, deltas, odd, seed):
    # max_g (max row sum among the emitters of total rate Gamma_g +
    # |delta + i Gamma_g / 2|) is max_j (sum_k |C_jk| + |M_jj|), bit for bit,
    # over stacks of one chain or several, with NaN and inf row sums too.
    rng = np.random.default_rng(seed)
    phases, m0, sums = chains.carrier
    sums = sums.copy()
    for value in odd:  # into random rows of random chains
        sums[rng.integers(len(sums)), rng.integers(chains.n)] = value
    chains.carrier = (phases, m0, sums)
    chains.__dict__.pop("rate_sums", None)
    widths, maxima = chains.rate_sums
    assert len(widths) == len(np.unique(chains.total))
    deltas = np.tile(deltas, len(sums))
    chain = np.arange(len(sums)).repeat(len(deltas) // len(sums))
    for points in (slice(None), slice(0, max(1, len(chain) // len(sums)))):
        d, c = deltas[points], chain[points]
        expected = _row_max(sums[c] + np.abs(-d[:, None] - chains.width))
        per_point = maxima[c[0]] if c[0] == c[-1] else maxima[c]
        assert _carrier_norm(d, widths, per_point).tobytes() == expected.tobytes()


def full_near(gap, norm):
    return _row_max(np.abs(gap) <= RESIDUAL_LIMIT * norm[:, None])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    points=st.integers(min_value=1, max_value=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_test_over_dark_modes_is_the_full_tests_mask(n, points, seed):
    # Modes at, near and far from the real axis, detunings on, near and far
    # from their real parts, and NaN and inf norms and modes.
    rng = np.random.default_rng(seed)
    damping = rng.choice([0.0, 1e-15, 1e-9, 1e-7, 3.43, np.nan], size=n)
    lam = rng.uniform(-50.0, 50.0, n) - 1j * damping * rng.choice([1.0, -1.0], size=n)
    deltas = np.where(rng.random(points) < 0.5, rng.choice(lam.real, points), rng.uniform(-60, 60, points))
    deltas = deltas + rng.choice([0.0, 1e-12, 1e-8], size=points)
    norm = rng.choice([1.0, 44.0, 1e4, np.nan, np.inf], size=points)
    gap = lam - deltas[:, None]
    near = _near(gap, norm, np.abs(lam.imag))
    assert near.tobytes() == full_near(gap, norm).tobytes()
    # A mode exactly at the limit is near: |lambda - Re lambda| = |Im lambda|.
    gap = np.array([[5.0 - 44.0 * RESIDUAL_LIMIT * 1j]]) - 5.0
    assert _near(gap, np.array([44.0]), np.abs(gap.imag[0])).tolist() == [True]


@pytest.mark.parametrize("case", ["dark", "isolated"])
def test_points_on_a_dark_mode_go_to_the_lu(case):
    # "dark": the lossless symmetric pair at half the guided wavelength has a
    # subradiant mode within 4e-15 of the real axis, decoupled from the input,
    # so the LU solves a grid point on it too.  "isolated": the N = 30 chain
    # whose last two emitters form a lossless pair with real modes +-1, where
    # M(delta) is singular.  The LU takes exactly the points that the full
    # (P, N) test finds near, and its verdict stands: the LU batch's error.
    if case == "dark":
        config = symmetric_config(2, ddi_mode="auto", spacing=105.9)
        ddi = ddi_matrix(config)
    else:
        config, ddi = isolated_pair(chiral_config(30))
    chains = _chain(config, ddi)
    lam = chains.modes[0][0]
    dark = lam[np.abs(lam.imag) < 1e-12].real
    assert dark.size
    grid = np.unique(np.concatenate([np.linspace(-40.0, 40.0, 9), dark]))
    gap = lam - grid[:, None]
    widths, maxima = chains.rate_sums
    norm = _carrier_norm(grid, widths, maxima[0])
    near = _near(gap, norm, np.abs(lam.imag))
    assert near.tobytes() == full_near(gap, norm).tobytes() and near.any()
    solve, stacks = np.linalg.solve, []

    def recording(matrices, rhs):  # before solving: a singular stack raises
        if matrices.ndim == 3 and rhs.shape[-1] == 1:  # an LU stack, not V against [I | b]
            stacks.append(-matrices[:, 0, 0].real)  # M_11 = -delta - i Gamma_1 / 2
        return solve(matrices, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recording)
        try:
            scan(config, ddi, grid)
            raised = None
        except SolverError as err:
            raised = err
    assert np.concatenate(stacks).tolist() == grid[near].tolist()
    if raised is None:
        solve_spectrum_point_batch(config, ddi, grid)
    else:
        with pytest.raises(SolverError) as err:
            solve_spectrum_point_batch(config, ddi, grid)
        assert str(raised) == str(err.value)


@pytest.mark.parametrize("p", [1, 2, 3, 136])
@pytest.mark.parametrize("n", [1, 2, 9, 30, 100])
def test_port_sums_are_the_cumsums_last_column(n, p):
    # The F-ordered sum makes cumsum's additions in its order, bit for bit,
    # on a stack's waves and on their reversed view (the leftward ports), a
    # one-point stack too; a channel without rates sums to exactly 0.
    rng = np.random.default_rng(100 * p + n)
    rates = rng.random(n)
    waves = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    for x in (waves, waves[:, ::-1]):
        expected = np.cumsum(rates * x, axis=1)[:, -1]
        assert _port_sum(rates, x).tobytes() == expected.tobytes()
    assert _port_sum(np.zeros(n), waves) == 0.0


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
@SOLVERS
def test_failure_past_the_first_modal_stack_names_its_detuning(solve, descending):
    grid = np.arange(-400.0, 401.0)
    poles = np.flatnonzero(abs(grid) == 1.0)
    assert poles.min() >= MODAL_STACK_30  # both past the first modal stack
    for phases in (False, True):
        config, ddi = isolated_pair(chiral_config(30, delta_dependent_phases=phases))
        # Off the poles, the scan is solved from the modes alone: one solve,
        # V^-1, at either phase model.
        recorder = RecordingSolve()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", recorder)
            scan(config, ddi, grid + 0.5)
        assert [m.shape for m, _, _ in recorder.systems] == [(1, 30, 30)]
        with pytest.raises(SolverError, match="^singular transport system") as err:
            solve(config, ddi, grid[::-1] if descending else grid)
        assert err.value.delta == (1.0 if descending else -1.0)
        assert err.value.condition == np.inf


#: Points of one LU stack at N = 30.
LU_STACK_30 = STACK_ELEMENTS // 30**2


class KeepingSolve(RecordingSolve):
    """``RecordingSolve`` that keeps the stacked matrices it was given, not
    copies: the arrays the solver wrote them into."""

    def __call__(self, matrices, rhs):
        x = self.solve(matrices, rhs)
        self.systems.append((matrices, np.array(rhs), x))
        return x


PHASE_MODELS = pytest.mark.parametrize("phases", [False, True], ids=["carrier", "delta-dependent"])


@PHASE_MODELS
def test_lu_stacks_of_a_refinement_share_one_buffer(phases):
    # Every LU stack of the reference refinement writes its matrices into
    # its chain's one buffer; none allocates a block of its own.
    config = chiral_config(30, delta_dependent_phases=phases)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-300.0, 300.0, 2001))
    recorder = KeepingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        find_peaks(result, "T", "Tt", refine=True)
    # LU stacks solve one right-hand side a point; V^-1 and w solve V against [I | b].
    stacks = [matrices for matrices, rhs, _ in recorder.systems if rhs.shape[-1] == 1]
    assert len(stacks) > 3 and max(len(m) for m in stacks) == LU_STACK_30
    assert len({id(m.base) for m in stacks}) == 1
    assert all(np.shares_memory(m, stacks[0]) for m in stacks)


def test_intensity_estimates_track_the_lu_at_the_routing_peaks():
    # The chiral N = 300 carrier-phase scan at its 40 highest-Tt points.
    # Wherever a modal intensity is off the LU's by more than 1e-13, the
    # adjoint estimate of that error is within a factor of 2 of it, and
    # every corrected intensity is within a tenth of the floor (scaled by
    # 1 + s) of the LU's.  Estimate and sensitivity, from the solve's own
    # defect rows, are the two-pass oracle's, bit for bit.
    config = chiral_config(300)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-300.0, 300.0, 401))
    top = np.sort(np.argsort(result.intensities["Tt"])[-40:])
    chains = _chain(config, ddi)
    modal = _solve_chains(chains, result.delta[top], modal=True, keep_defect=True)
    assert modal.table().tobytes() == result.table()[top].tobytes()
    lu = solve_spectrum_point_batch(config, ddi, result.delta[top])
    for key in ("T", "Tt"):
        channel = np.full(top.size, INTENSITY_KEYS.index(key))
        error, sensitivity = _intensity_errors(chains, modal, channel)
        oracle = intensity_errors(chains, modal, channel)
        assert [error.tobytes(), sensitivity.tobytes()] == [x.tobytes() for x in oracle]
        off = lu.intensities[key] - modal.intensities[key]
        large = abs(off) > 1e-13
        assert large.sum() >= 10
        assert np.all((error[large] / off[large] >= 0.5) & (error[large] / off[large] <= 2.0))
        assert np.all(abs(off - error) <= 0.1 * MODAL_ERROR_FLOOR * (1.0 + sensitivity))


def reference_chains(spacings):
    """The reference N = 30 chain at each of ``spacings``, as one ``_Chains``."""
    configs = [chiral_config(30, spacing=spacing) for spacing in spacings]
    return _Chains(configs, np.array([ddi_matrix(c).values for c in configs]))


@pytest.mark.parametrize("spacings", [(32.75,), (32.75, 40.0)], ids=["one-chain", "two-chains"])
def test_interleaved_solves_of_one_chain_match_fresh_chains(spacings):
    # The LU buffer a chain keeps between solves changes no bit: a scan, then
    # probes, then LU batches longer than one LU stack, some of whose stacks
    # span two chains, give what each gives on a fresh chain.
    grid = np.linspace(-300.0, 300.0, 401)
    probes = np.array([241.6, -12.25, 57.0])
    batch = np.linspace(-50.0, 50.0, 3 * LU_STACK_30 + 5)
    chains = reference_chains(spacings)
    for deltas, modal in ((grid, True), (probes, False), (batch, False), (batch[:10], False),
                          (probes[:1], False), (batch[::-1], False), (grid, True)):
        kept = _solve_chains(chains, deltas, modal)
        fresh = _solve_chains(reference_chains(spacings), deltas, modal)
        for key in ("a", *AMPLITUDES, "residual"):
            assert np.array_equal(getattr(kept, key), getattr(fresh, key))
        for key in INTENSITY_KEYS:
            assert np.array_equal(kept.intensities[key], fresh.intensities[key])


def corrupting_solve(faults):
    """``np.linalg.solve`` that spoils the solution of each stacked system
    whose diagonal reads -delta for a delta in ``faults``: scaled by
    1 + 1e-6 ("near"), a backward error of about 1e-6, or NaN ("nan")."""
    solve = np.linalg.solve

    def corrupted(matrices, rhs):
        x = solve(matrices, rhs)
        for i, matrix in enumerate(matrices if matrices.ndim == 3 else ()):
            fault = faults.get(-matrix[0, 0].real)
            if fault == "near":
                x[i] *= 1.0 + 1e-6
            elif fault == "nan":
                x[i] = np.nan
        return x

    return corrupted


@PHASE_MODELS
@pytest.mark.parametrize("first, then", [("near", "nan"), ("nan", "near")])
def test_failure_past_the_first_lu_stack_of_a_point_stack(first, then, phases):
    # One point stack of 60 points, in LU stacks of 18: the first failure
    # sits in the second LU stack, a different one after it in the third.
    # All are solved before the one check, which raises the first.
    config = chiral_config(30, delta_dependent_phases=phases)
    ddi = ddi_matrix(config)
    deltas = np.linspace(-100.0, 100.0, 60)
    assert deltas.size <= STACK_ELEMENTS // (4 * 30)
    early, late = deltas[LU_STACK_30 + 2], deltas[2 * LU_STACK_30 + 3]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", corrupting_solve({early: first, late: then}))
        with pytest.raises(SolverError) as err:
            solve_spectrum_point_batch(config, ddi, deltas)
    assert err.value.delta == early
    if first == "nan":
        message = f"non-finite solution of the transport system at delta={early:+.6g}"
        assert str(err.value) == message
        assert err.value.condition is None
        return
    # The point's own matrix, built apart from the chain's LU buffer.
    chains = _chain(config, ddi)
    matrix, _ = chains.coupling(chains.phases(np.array([config.step_phase(early)])), ddi.values)
    matrix = matrix[0]
    np.fill_diagonal(matrix, -early - chains.width)
    condition = np.linalg.cond(matrix)
    assert err.value.condition == condition
    assert str(err.value) == (f"near-singular transport system at delta={early:+.6g}"
                              f" (condition estimate {condition:.3e})")


@settings(max_examples=60, deadline=None)
@given(chain=random_chains(), without_ddi=st.booleans(), deltas=scan_grids)
def test_scan_matches_the_pole_residue_form(chain, without_ddi, deltas):
    # A third oracle: every port as a sum over the chain's collective modes,
    # from the 5N system's own M0 and b (see ``pole_residues``).  Without
    # DDI, chiral emitters that share a total rate are one Jordan block: no
    # basis of modes, so the chain is skipped, as are its near neighbours.
    config, ddi = at_carrier_phases(chain)
    if without_ddi:
        ddi = no_ddi(config.n_emitters)
    modes = pole_residues(config, ddi)
    assume(modes is not None)
    lam, p0, rho = modes
    deltas = np.asarray(deltas)
    ports = p0[:, None] + (rho[:, None, :] / (lam - deltas[:, None])).sum(axis=2)
    result = scan(config, ddi, deltas)
    for key, port in zip(("t", "r", "tt", "rt"), ports):
        assert np.max(np.abs(getattr(result, key) - port)) < 1e-10


@pytest.mark.parametrize("make", [chiral_config, symmetric_config], ids=["chiral", "symmetric"])
@pytest.mark.parametrize("n", [2, 10, 30])
def test_reference_grids_match_the_pole_residue_form(make, n):
    config = make(n, gamma=EMISSION)
    ddi = ddi_matrix(config)
    lam, p0, rho = pole_residues(config, ddi)
    grid = np.linspace(-300.0, 300.0, 601)
    ports = p0[:, None] + (rho[:, None, :] / (lam - grid[:, None])).sum(axis=2)
    result = scan(config, ddi, grid)
    for key, port in zip(("t", "r", "tt", "rt"), ports):
        assert np.max(np.abs(getattr(result, key) - port)) < 1e-10


@pytest.mark.parametrize("n", [2, 5, 30])
def test_pole_residue_form_skips_defective_chains(n):
    config = chiral_config(n, ddi_mode="off")
    assert pole_residues(config, ddi_matrix(config)) is None


@pytest.mark.parametrize("gamma", [EMISSION, 0.0], ids=["lossy", "lossless"])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_defective_chain_is_solved_by_the_lu_alone(n, gamma):
    # Identical chiral emitters without DDI: M0 is one Jordan block, whose
    # eigenvectors are parallel.  V is singular or V^-1 huge, every modal
    # point fails the check, and the LU solves each as the batch does, in
    # stacks no larger than the batch's inside the larger modal stacks.
    config = chiral_config(n, gamma=gamma, ddi_mode="off")
    ddi = ddi_matrix(config)
    deltas = np.linspace(-60.0, 60.0, 121)
    recorder = RecordingSolve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorder)
        modal = scan(config, ddi, deltas)
    stacks = [len(m) for m, _, _ in recorder.systems if m.shape[-1] == n]
    assert sum(stacks) >= deltas.size and max(stacks) <= STACK_ELEMENTS // n**2
    lu = solve_spectrum_point_batch(config, ddi, deltas)
    for key in ("a", *AMPLITUDES, "residual"):
        assert np.array_equal(getattr(modal, key), getattr(lu, key))
    for key in INTENSITY_KEYS:
        assert np.array_equal(modal.intensities[key], lu.intensities[key])


def test_a_failing_decomposition_fails_its_chain_alone():
    # eig raises for a stack of chains one of which holds an inf: each chain
    # is then decomposed on its own, so chain 0 keeps its modes, bit for bit,
    # and chain 1 is all NaN, which sends its points to the LU.
    config = chiral_config(30)
    chains = _chain(config, ddi_matrix(config))
    phases, m0, _ = chains.carrier
    rhs = -(chains.v_dr * phases)
    spoiled = m0.copy()
    spoiled[0, 3, 4] = np.inf
    both = _modes(np.concatenate([m0, spoiled]), np.concatenate([rhs, rhs]))
    for got, alone in zip(both, _modes(m0.copy(), rhs)):
        assert np.array_equal(got[:1], alone)
        assert np.isnan(got[1]).all()


def test_a_failing_parity_split_fails_its_chain_alone():
    # The same for mirror-symmetric chains, whose halves are decomposed in
    # one stack: an inf in M0's top rows, which the halves read, makes eig
    # raise; each chain is then split on its own.
    config = symmetric_config(30, gamma=EMISSION)
    chains = _chain(config, ddi_matrix(config))
    phases, m0, _ = chains.carrier
    rhs = -(chains.v_dr * phases)
    spoiled = m0.copy()
    spoiled[0, 3, 4] = np.inf
    assert chains.mirrored
    both = _modes(np.concatenate([m0, spoiled]), np.concatenate([rhs, rhs]), True)
    for got, alone in zip(both, _modes(m0.copy(), rhs, True)):
        assert np.array_equal(got[:1], alone)
        assert np.isnan(got[1]).all()


def plain_modes(m0, rhs):
    """lambda, V, V^-1 and w = V^-1 b of M0 (C, N, N) and b (C, N) from one
    full eig, a solve against I and one against b."""
    lam, vecs = np.linalg.eig(m0)
    inverse = np.linalg.solve(vecs, np.broadcast_to(np.eye(m0.shape[-1]), m0.shape))
    return lam, vecs, inverse, np.linalg.solve(vecs, rhs[..., None])[..., 0]


def tilted(n):
    """A symmetric coupling matrix that its reversal changes: one pair of
    emitters near an end couples more strongly."""
    exchange = ddi_matrix(symmetric_config(n)).values.copy()
    exchange[0, 1] = exchange[1, 0] = 2.0 * exchange[0, 1]
    return DdiMatrix(exchange)


@pytest.mark.parametrize(
    "config, ddi",
    [
        (chiral_config(30), None),
        (symmetric_config(30, gamma=tuple(np.linspace(1.0, 7.0, 30))), None),
        (symmetric_config(30), tilted(30)),
        (symmetric_config(1, gamma=EMISSION), None),
    ],
    ids=["chiral", "graded-gamma", "tilted-ddi", "one-emitter"],
)
def test_chains_that_are_not_their_mirror_image_take_the_full_eig(config, ddi):
    chains = _chain(config, ddi or ddi_matrix(config))
    assert not chains.mirrored
    phases, m0, _ = chains.carrier
    for got, plain in zip(chains.modes, plain_modes(m0, -(chains.v_dr * phases)), strict=True):
        assert np.array_equal(got, plain)


@pytest.mark.parametrize("gamma", [EMISSION, 0.0], ids=["lossy", "lossless"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 30, 31, 100, 101])
def test_mirror_symmetric_chains_split_by_parity(n, gamma):
    # Uniform symmetric chains are their own mirror image, so their modes
    # come from the two parity halves (odd N: the even one bordered by the
    # middle row).  They decompose the true M0: the eigenvector residual
    # and V^-1 V - I within 10 N eps (relative to max |M0| max |V|, and
    # absolute), and lambda within 10 N eps max |M0| of the full eig's.
    # w, solved from b's parity parts, has V w - b within 10 N eps
    # max |V| max |w|.
    config = symmetric_config(n, gamma=gamma)
    chains = _chain(config, ddi_matrix(config))
    assert chains.mirrored
    (phases,), (m0,), _ = chains.carrier
    (lam,), (vecs,), (inverse,), (w,) = chains.modes
    bound = 10 * n * EPS
    scale = abs(m0).max()
    assert abs(m0 @ vecs - vecs * lam).max() <= bound * scale * abs(vecs).max()
    assert abs(inverse @ vecs - np.eye(n)).max() <= bound
    assert abs(vecs @ w + chains.v_dr * phases).max() <= bound * abs(vecs).max() * abs(w).max()
    full = np.sort_complex(np.linalg.eigvals(m0))
    assert abs(np.sort_complex(lam) - full).max() <= bound * scale


def test_mirror_symmetric_scan_tracks_the_lu_at_the_routing_peaks():
    # The lossy symmetric N = 300 carrier-phase scan, from its parity
    # halves, at its 40 highest-Tt points: every intensity within 1e-13 of
    # the LU's.  M0's rounded phases are centrosymmetric only to about
    # 131 eps max |M0| here; the check measures against M0 itself.
    config = symmetric_config(300, gamma=EMISSION)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-300.0, 300.0, 401))
    assert result._solved[1].mirrored
    top = np.sort(np.argsort(result.intensities["Tt"])[-40:])
    lu = solve_spectrum_point_batch(config, ddi, result.delta[top])
    for key in INTENSITY_KEYS:
        assert np.max(np.abs(result.intensities[key][top] - lu.intensities[key])) < 1e-13


def test_delta_dependent_phase_is_a_tiny_correction():
    fixed = chiral_config(2)
    corrected = chiral_config(2, delta_dependent_phases=True)
    ddi = ddi_matrix(fixed)
    a = solve_spectrum_point_batch(fixed, ddi, [100.0]).intensities["Tt"]
    b = solve_spectrum_point_batch(corrected, ddi, [100.0]).intensities["Tt"]
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
        sol = solve_spectrum_point_batch(config, DdiMatrix(exchange), [delta])
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
        sol = solve_spectrum_point_batch(config, ddi_matrix(config), [delta])
    except SolverError:
        return
    fields = segments(config, sol)
    assert np.all(fields["r"] == 0.0)
    assert np.all(fields["rt"] == 0.0)
    assert sol.intensities["loss"] >= -1e-9
