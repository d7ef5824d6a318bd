"""Acceptance suite: every exit criterion checked at its stated tolerance,
with one printed pass/fail line per criterion (run with ``pytest -s``)."""

import cmath
import math
import time

import numpy as np
import pytest

from photon_router import (
    DdiMatrix,
    SolverError,
    SystemConfig,
    ddi_coupling,
    ddi_matrix,
    find_peaks,
    scan,
    solve_transport,
    validate,
)

from closed_forms import single_chiral, single_symmetric, two_chiral
from conftest import COUPLING, EMISSION, chiral_config, symmetric_config
from dense_oracle import segment_amplitudes


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def no_ddi(n: int) -> DdiMatrix:
    return DdiMatrix(np.zeros((n, n)))


def test_criterion_1_symmetric_resonance_splits_evenly():
    started = time.perf_counter()
    config = symmetric_config(1)
    sol = solve_transport(config, no_ddi(1), 0.0)
    values = [sol.intensities[k] for k in ("T", "R", "Tt", "Rt")]
    elapsed = time.perf_counter() - started
    ok = all(abs(v - 0.25) <= 1e-10 for v in values) and elapsed < 1.0
    report(1, "single emitter, symmetric, lossless: 0.25 at every port", ok,
           f"values={values}, elapsed={elapsed:.3f}s")


def test_criterion_2_chiral_resonance_routes_with_pi_phase():
    config = chiral_config(1, gamma=0.0)
    sol = solve_transport(config, no_ddi(1), 0.0)
    routed = sol.intensities["Tt"]
    through = sol.intensities["T"]
    phase = abs(cmath.phase(sol.tt))
    ok = (
        abs(routed - 1.0) <= 1e-10
        and through <= 1e-10
        and abs(phase - math.pi) <= 1e-9
    )
    report(2, "single emitter, chiral, lossless: full routing with pi phase", ok,
           f"Tt={routed}, T={through}, phase={phase}")


def test_criterion_3_chiral_resonance_with_loss():
    config = chiral_config(1)
    sol = solve_transport(config, no_ddi(1), 0.0)
    ok = (
        abs(sol.intensities["Tt"] - 0.5819) <= 1e-4
        and abs(sol.intensities["T"] - 0.0563) <= 1e-4
    )
    report(3, "single emitter, chiral, lossy: routing drops to 58%", ok,
           f"Tt={sol.intensities['Tt']:.6f}, T={sol.intensities['T']:.6f}")


def test_criterion_4_ddi_strength_at_reference_spacing():
    config = chiral_config(2)
    value = ddi_coupling(config.r_step, config.dipole_angle)
    matrix = ddi_matrix(config).values
    ok = abs(value - 23.10) <= 0.05 and matrix[0, 1] == value
    report(4, "nearest-neighbour coupling 23.08 Gamma0 at 32.75 nm", ok,
           f"value={value:.6f}")


def test_criterion_5_two_emitters_uncoupled_lossless():
    config = chiral_config(2, gamma=0.0, ddi_mode="off")
    split_hi = solve_transport(config, no_ddi(2), +COUPLING).intensities["Tt"]
    split_lo = solve_transport(config, no_ddi(2), -COUPLING).intensities["Tt"]
    through = solve_transport(config, no_ddi(2), 0.0).intensities["T"]
    ok = (
        abs(split_hi - 1.0) <= 1e-9
        and abs(split_lo - 1.0) <= 1e-9
        and abs(through - 1.0) <= 1e-9
    )
    report(5, "two emitters, no direct coupling: unit routing at +-Gamma", ok,
           f"Tt(+G)={split_hi}, Tt(-G)={split_lo}, T(0)={through}")


def test_criterion_6_two_emitters_coupled_lossless_peaks():
    config = chiral_config(2, gamma=0.0, ddi_mode="manual", ddi_strength=23.10)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-60.0, 60.0, 1201))
    peaks = [
        p for p in find_peaks(result, "Tt", refine=True, config=config, ddi=ddi)
        if p.height > 0.5
    ]
    locations = sorted(p.location for p in peaks)
    heights = [p.height for p in peaks]

    fine = np.arange(-13.3, -12.8, 5e-4)
    routed = [solve_transport(config, ddi, d).intensities["Tt"] for d in fine]
    null_location = float(fine[int(np.argmin(routed))])
    null_value = float(np.min(routed))

    ok = (
        len(peaks) == 2
        and abs(locations[0] + 32.81) <= 0.05
        and abs(locations[1] - 32.81) <= 0.05
        and all(abs(h - 1.0) <= 1e-6 for h in heights)
        and abs(null_location + 13.05) <= 0.05
        and null_value <= 1e-9
    )
    report(6, "two emitters, coupled, lossless: unit peaks at +-32.81, null at -13.05",
           ok, f"locations={locations}, heights={heights}, "
               f"null=({null_location}, {null_value:.2e})")


def test_criterion_7_two_emitters_coupled_lossy_peak():
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, np.linspace(-60.0, 60.0, 1201))
    peaks = find_peaks(result, "Tt", refine=True, config=config, ddi=ddi)
    best = max(peaks, key=lambda p: p.height)
    ok = abs(best.height - 0.67) <= 0.02 and best.location > 0.0
    report(7, "two emitters, coupled, lossy: routing reaches 67% at positive detuning",
           ok, f"peak=({best.location:.3f}, {best.height:.4f})")


def test_criterion_8_chain_scaling(reference_scaling):
    by_n = {r.n: r for r in reference_scaling.records}
    expected = {10: (0.850, 108.36), 20: (0.926, 173.33), 30: (0.951, 241.53)}
    ok = True
    detail = []
    for n, (height, location) in expected.items():
        record = by_n[n]
        ok = (
            ok
            and abs(record.tt_max - height) <= 0.02
            and abs(record.delta_star - location) <= 5.0
        )
        detail.append(f"N={n}: ({record.delta_star:.2f}, {record.tt_max:.4f})")
    loss = by_n[30].loss_at_peak
    ok = ok and abs(loss - 0.05) <= 0.02
    detail.append(f"loss(30)={loss:.4f}")

    config = chiral_config(30)
    started = time.perf_counter()
    scan(config, ddi_matrix(config), np.linspace(-300.0, 300.0, 2001))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    detail.append(f"scan={elapsed:.2f}s")
    report(8, "chain scaling: routing 0.850/0.926/0.951 for N=10/20/30", ok,
           "; ".join(detail))


def test_criterion_9_oracle_equivalence():
    grid = np.linspace(-100.0, 100.0, 1001)
    worst = 0.0

    for gamma in (0.0, EMISSION):
        sym = symmetric_config(1, gamma=gamma)
        chi = chiral_config(1, gamma=gamma)
        for delta in grid:
            num = solve_transport(sym, no_ddi(1), delta)
            ref = single_symmetric(delta, COUPLING, gamma)
            worst = max(
                worst,
                abs(num.t - ref.t), abs(num.r - ref.r),
                abs(num.tt - ref.tt), abs(num.rt - ref.rt),
            )
            num = solve_transport(chi, no_ddi(1), delta)
            ref = single_chiral(delta, COUPLING, gamma)
            worst = max(
                worst,
                abs(num.t - ref.t), abs(num.r - ref.r),
                abs(num.tt - ref.tt), abs(num.rt - ref.rt),
            )

    coupled = ddi_matrix(chiral_config(2))
    strength = coupled.values[0, 1]
    for exchange, gamma in ((0.0, 0.0), (strength, 0.0), (0.0, EMISSION),
                            (strength, EMISSION)):
        config = chiral_config(2, gamma=gamma)
        ddi = coupled if exchange else no_ddi(2)
        for delta in grid:
            num = solve_transport(config, ddi, delta)
            ref = two_chiral(delta, COUPLING, gamma, exchange, config.theta)
            worst = max(
                worst,
                abs(num.t - ref.t), abs(num.r - ref.r),
                abs(num.tt - ref.tt), abs(num.rt - ref.rt),
            )

    ok = worst < 1e-8
    report(9, "dense solve matches every closed form on 1001-point grids", ok,
           f"max amplitude deviation {worst:.3e}")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(2026)
    max_flux_error = 0.0
    min_loss = np.inf
    max_residual = 0.0
    rejected = 0

    # (a) lossless flux conservation over 200 random configs
    accepted = 0
    while accepted < 200:
        n = int(rng.integers(1, 11))
        config = validate(
            SystemConfig(
                n_emitters=n,
                gamma=0.0,
                gamma_dr=rng.uniform(0.0, 20.0),
                gamma_dl=rng.uniform(0.0, 20.0),
                gamma_ur=rng.uniform(0.0, 20.0),
                gamma_ul=rng.uniform(0.0, 20.0),
                spacing=rng.uniform(1.0, 210.0),
                ddi_mode="off",
            )
        )
        exchange = rng.uniform(-30.0, 30.0, (n, n))
        exchange = 0.5 * (exchange + exchange.T)
        np.fill_diagonal(exchange, 0.0)
        try:
            sol = solve_transport(config, DdiMatrix(exchange), rng.uniform(-50.0, 50.0))
        except SolverError:
            rejected += 1  # isolated lossless pole; the solver refuses it
            assert rejected < 20
            continue
        accepted += 1
        total = sum(v for k, v in sol.intensities.items() if k != "loss")
        max_flux_error = max(max_flux_error, abs(1.0 - total))
        min_loss = min(min_loss, sol.intensities["loss"])
        max_residual = max(max_residual, sol.residual)

    # (b) chiral configs have exactly zero backflow
    backflow = 0.0
    for _ in range(50):
        config = validate(
            SystemConfig(
                n_emitters=int(rng.integers(1, 11)),
                gamma=rng.uniform(0.0, 10.0),
                gamma_dr=rng.uniform(0.0, 20.0),
                gamma_ur=rng.uniform(0.0, 20.0),
                spacing=rng.uniform(5.0, 100.0),
            )
        )
        sol = solve_transport(config, ddi_matrix(config), rng.uniform(-50.0, 50.0))
        fields = segment_amplitudes(config, [sol.delta], sol.a[None])
        backflow = max(
            backflow,
            abs(sol.r), abs(sol.rt),
            np.abs(fields["r"]).max(), np.abs(fields["rt"]).max(),
            sol.intensities["R"], sol.intensities["Rt"],
        )
        min_loss = min(min_loss, sol.intensities["loss"])
        max_residual = max(max_residual, sol.residual)

    # (d) coupling matrix structure for random chains
    structure_ok = True
    for _ in range(20):
        config = validate(
            SystemConfig(
                n_emitters=int(rng.integers(2, 41)),
                spacing=rng.uniform(5.0, 100.0),
            )
        )
        matrix = ddi_matrix(config).values
        structure_ok = structure_ok and np.array_equal(matrix, matrix.T)
        structure_ok = structure_ok and bool(np.all(np.diag(matrix) == 0.0))
        for offset in range(1, config.n_emitters):
            band = np.diagonal(matrix, offset)
            structure_ok = structure_ok and bool(np.all(band == band[0]))

    ok = (
        max_flux_error < 1e-9
        and backflow == 0.0
        and min_loss >= -1e-9
        and structure_ok
        and max_residual < 1e-10
    )
    report(10, "property suite: flux, backflow, loss sign, coupling structure, residuals",
           ok, f"flux={max_flux_error:.2e}, backflow={backflow}, min_loss={min_loss:.2e}, "
               f"residual={max_residual:.2e}, rejected={rejected}")


def test_criterion_11_chain_length_not_ddi_lifts_routing(
    reference_scaling, reference_scaling_without_ddi
):
    # Routing maxima of the reference chain with and without the coherent
    # dipole-dipole interaction: both columns rise with N to about 0.95.
    expected = {
        "auto": (0.5819, 0.6705, 0.7203, 0.8505, 0.9265, 0.9507),
        "off": (0.5819, 0.6165, 0.7762, 0.8701, 0.9296, 0.9517),
    }
    ok = True
    detail = []
    for mode, scaling in (("auto", reference_scaling), ("off", reference_scaling_without_ddi)):
        heights = [record.tt_max for record in scaling.records]
        ok = ok and all(abs(h - e) <= 1e-3 for h, e in zip(heights, expected[mode], strict=True))
        detail.append(f"{mode}: " + "/".join(f"{h:.4f}" for h in heights))
    report(11, "chain scaling with DDI on and off: Tt_max within 1e-3 of both columns",
           ok, "; ".join(detail))
