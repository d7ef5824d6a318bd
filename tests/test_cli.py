import json

import numpy as np
import pytest

import photon_router.cli as cli
from photon_router.cli import main

TWO_EMITTER = {
    "n_emitters": 2,
    "gamma": 6.86,
    "gamma_dr": 11.03,
    "gamma_ur": 11.03,
    "spacing": 32.75,
    "lambda_qd": 655.0,
    "lambda_sp": 211.8,
    "ddi_mode": "auto",
}


@pytest.fixture()
def two_emitter_config(tmp_path):
    path = tmp_path / "two_emitter.json"
    path.write_text(json.dumps(TWO_EMITTER))
    return path


def read_csv(path):
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    columns = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return columns


def test_validate_prints_derived_quantities(two_emitter_config, capsys):
    assert main(["validate", "--config", str(two_emitter_config)]) == 0
    out = capsys.readouterr().out
    assert "chiral: true" in out
    assert "0.3093 pi" in out
    assert "23.08" in out
    assert "r_step: 0.314159" in out


def test_validate_dump_ddi_symmetric(tmp_path, capsys):
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(TWO_EMITTER | {"n_emitters": 30}))
    out = tmp_path / "ddi.csv"
    assert main(["validate", "--config", str(config), "--dump-ddi", str(out)]) == 0
    matrix = np.array(
        [
            [float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()
            if not line.startswith("#")
        ]
    )
    assert matrix.shape == (30, 30)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    assert out.with_suffix(".csv.manifest.json").exists()


def test_spectrum_artifacts_and_determinism(two_emitter_config, tmp_path):
    out = tmp_path / "spectrum.csv"
    argv = [
        "spectrum", "--config", str(two_emitter_config), "--out", str(out),
        "--delta-min", "-60", "--delta-max", "60", "--delta-points", "241",
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    first_peaks = (tmp_path / "spectrum.peaks.json").read_bytes()
    manifest = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["config"]["n_emitters"] == 2
    assert manifest["grid"]["points"] == 241
    assert str(out) in manifest["outputs"]
    assert manifest["wall_clock_s"] > 0.0

    assert main(argv) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "spectrum.peaks.json").read_bytes() == first_peaks

    columns = read_csv(out)
    assert len(columns["delta"]) == 241
    assert np.all(columns["loss"] >= -1e-9)
    assert np.allclose(
        columns["loss"],
        1.0 - columns["T"] - columns["R"] - columns["Tt"] - columns["Rt"],
        atol=1e-15,
    )


def test_spectrum_refined_routing_peak(two_emitter_config, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main([
        "spectrum", "--config", str(two_emitter_config), "--out", str(out),
        "--delta-min", "-60", "--delta-max", "60", "--delta-points", "241",
        "--refine-peaks",
    ]) == 0
    peaks = json.loads((tmp_path / "spectrum.peaks.json").read_text())
    routed = [p for p in peaks if p["channel"] == "Tt"]
    best = max(routed, key=lambda p: p["height"])
    assert best["refined"] is True
    assert best["location"] > 0.0
    assert best["height"] == pytest.approx(0.67, abs=0.02)


def test_decoupled_chain_transmits_everything(tmp_path):
    config = tmp_path / "decoupled.json"
    config.write_text(json.dumps({"n_emitters": 1, "gamma": 1.0, "ddi_mode": "off"}))
    out = tmp_path / "flat.csv"
    assert main([
        "spectrum", "--config", str(config), "--out", str(out),
        "--delta-min", "-10", "--delta-max", "10", "--delta-points", "41",
    ]) == 0
    columns = read_csv(out)
    assert np.all(columns["T"] == 1.0)
    assert np.all(columns["Tt"] == 0.0)


def test_malformed_json_exits_1_with_position(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"n_emitters": }')
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_key_exits_1(tmp_path, capsys):
    config = tmp_path / "extra.json"
    config.write_text(json.dumps({"n_emitters": 1, "coupling": 2.0}))
    assert main(["validate", "--config", str(config)]) == 1
    assert "unknown config key 'coupling'" in capsys.readouterr().err


def test_validation_failure_exits_1(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n_emitters": 0, "gamma": -1.0}))
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "n_emitters" in err and "gamma" in err


@pytest.mark.parametrize(
    "data",
    [
        {"n_emitters": 2.5},
        {"n_emitters": True, "gamma_dr": 1.0},
        {"gamma_dr": "x"},
        {"gamma0_mhz": float("nan"), "gamma_dr": 1.0},
        {"gamma_dr": 10**400},  # an integer no float can hold
        {"gamma_dr": [10**400]},
    ],
)
def test_wrongly_typed_config_exits_1(tmp_path, capsys, data):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "never.csv"
    code = main([
        "spectrum", "--config", str(config), "--out", str(out),
        "--delta-points", "3",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    assert not out.exists()


def test_manual_ddi_near_a_coupling_node_exits_1(tmp_path, capsys):
    config = tmp_path / "node.json"
    node = {"n_emitters": 3, "spacing": 467.2, "ddi_mode": "manual", "ddi_strength": 23.10}
    config.write_text(json.dumps(TWO_EMITTER | node))
    out = tmp_path / "never.csv"
    assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 1
    assert "longer-range pair exceed |ddi_strength|" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exits_1(capsys):
    assert main(["spectrum"]) == 1
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["spectrum"], ["scale-n", "--n-list", "1"], ["sweep-separation", "--l-points", "2"]],
    ids=["spectrum", "scale-n", "sweep-separation"],
)
def test_solver_failure_exits_2_without_partial_output(command, tmp_path, capsys):
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"n_emitters": 1, "ddi_mode": "off"}))
    out = tmp_path / "never.csv"
    code = main([
        *command, "--config", str(config), "--out", str(out),
        "--delta-min", "-1", "--delta-max", "1", "--delta-points", "3",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("delta=") == 1
    assert "delta=+0" in err
    assert not out.exists()
    assert not (tmp_path / "never.csv.manifest.json").exists()


GRID_COMMANDS = {
    "spectrum": ["spectrum"],
    "scale-n": ["scale-n", "--n-list", "1"],
    "sweep-separation": ["sweep-separation", "--l-points", "2"],
}


@pytest.mark.parametrize("command", GRID_COMMANDS.values(), ids=GRID_COMMANDS.keys())
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--delta-min", "nan", "--delta-max", "nan", "--delta-points", "1"],
         "detuning window must be finite"),
        (["--delta-min", "inf", "--delta-max", "inf"], "detuning window must be finite"),
        (["--delta-points", "-3"], "detuning points must be >= 1, got -3"),
        (["--delta-min", "1", "--delta-max", "1", "--delta-points", "5"],
         "detuning window of 5 points needs min < max"),
    ],
    ids=["nan", "inf", "negative-points", "empty-window"],
)
def test_grid_override_is_validated(command, flags, message, two_emitter_config,
                                    tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main([*command, "--config", str(two_emitter_config), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    assert message in err
    assert not out.exists()


def _injected_fault(*args, **kwargs):
    raise ZeroDivisionError("injected fault")


@pytest.mark.parametrize(
    "overrides, fault, code, prefix",
    [
        ({"spacing": 1e-300}, None, 1, "config error: spacing 1e-300 nm is too small"),
        ({"spacing": 1e-103}, None, 1, "config error: spacing 1e-103 nm is too small"),
        ({}, _injected_fault, 4, "internal error: ZeroDivisionError: injected fault"),
    ],
    ids=["spacing-underflow", "coupling-overflow", "internal-error"],
)
def test_no_input_ends_in_a_traceback(overrides, fault, code, prefix, tmp_path,
                                      monkeypatch, capsys):
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(TWO_EMITTER | overrides))
    if fault is not None:
        monkeypatch.setattr(cli, "scan", fault)
    out = tmp_path / "never.csv"
    assert main([
        "spectrum", "--config", str(config), "--out", str(out), "--delta-points", "11",
    ]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"lambda_sp": 1e-320}, "theta = 2 pi spacing / lambda_sp is not finite"),
        ({"gamma": 1e308, "gamma_dr": 1e308}, "emitter 1: total rate"),
        ({"lambda_qd": 1e-320}, "r_step = 2 pi spacing / lambda_qd is not finite"),
    ],
    ids=["theta-overflow", "rate-overflow", "r-step-overflow"],
)
def test_solver_inputs_derived_from_valid_fields_must_be_finite(
    overrides, message, tmp_path, capsys
):
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(TWO_EMITTER | overrides))
    out = tmp_path / "never.csv"
    assert main([
        "spectrum", "--config", str(config), "--out", str(out), "--delta-points", "11",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_out_exits_3(two_emitter_config, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub.csv"  # parent is a file
    code = main([
        "spectrum", "--config", str(two_emitter_config), "--out", str(out),
        "--delta-points", "3",
    ])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_scale_n_single_record(two_emitter_config, tmp_path):
    out = tmp_path / "scaling.json"
    assert main([
        "scale-n", "--config", str(two_emitter_config), "--out", str(out),
        "--n-list", "1",
        "--delta-min", "-20", "--delta-max", "20", "--delta-points", "201",
    ]) == 0
    report = json.loads(out.read_text())
    assert report["window"] == {"min": -20.0, "max": 20.0, "points": 201}
    record = report["records"][0]
    assert record["n"] == 1
    assert record["tt_max"] == pytest.approx(0.5819, abs=1e-3)
    assert abs(record["delta_star"]) < 1e-3


def test_scale_n_bad_lists_exit_1(two_emitter_config, tmp_path, capsys):
    out = tmp_path / "scaling.json"
    base = ["scale-n", "--config", str(two_emitter_config), "--out", str(out)]
    assert main(base + ["--n-list", ""]) == 1
    assert main(base + ["--n-list", "3,2"]) == 1
    assert main(base + ["--n-list", "1,two"]) == 1
    assert not out.exists()


def test_sweep_single_column_matches_spectrum(two_emitter_config, tmp_path):
    delta_flags = ["--delta-min", "-40", "--delta-max", "40", "--delta-points", "81"]
    spectrum_out = tmp_path / "spectrum.csv"
    assert main([
        "spectrum", "--config", str(two_emitter_config),
        "--out", str(spectrum_out), *delta_flags,
    ]) == 0
    sweep_out = tmp_path / "sweep.csv"
    assert main([
        "sweep-separation", "--config", str(two_emitter_config),
        "--out", str(sweep_out),
        "--l-min", "32.75", "--l-max", "32.75", "--l-points", "1", *delta_flags,
    ]) == 0

    spectrum = read_csv(spectrum_out)
    sweep = read_csv(sweep_out)
    assert np.all(sweep["L_nm"] == 32.75)
    assert np.array_equal(sweep["delta"], spectrum["delta"])
    assert np.array_equal(sweep["Tt"], spectrum["Tt"])
    assert np.array_equal(sweep["T"], spectrum["T"])
