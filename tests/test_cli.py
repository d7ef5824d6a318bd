import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import photon_router
import photon_router.cli as cli
from photon_router import SeparationSweep, SystemConfig, cells, sweep_separation, validate
from photon_router.cli import main
from photon_router.params import EMITTER_LIMIT, POINTS_LIMIT
from photon_router.spectra import SWEEP_POINTS_LIMIT

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


MANIFEST_KEYS = ["command", "version", "config", "derived", "grid", "outputs",
                 "wall_clock_s"]
DELTA_FLAGS = ["--delta-min", "-20", "--delta-max", "20", "--delta-points", "5"]


@pytest.mark.parametrize(
    "command, flags, artifacts",
    [
        ("spectrum", ["--out", "{}/s.csv", *DELTA_FLAGS], ["s.csv", "s.peaks.json"]),
        ("sweep-separation", ["--out", "{}/w.csv", "--l-points", "2", *DELTA_FLAGS],
         ["w.csv"]),
        ("scale-n", ["--out", "{}/n.json", "--n-list", "1,2", *DELTA_FLAGS], ["n.json"]),
        ("validate", ["--dump-ddi", "{}/ddi.csv"], ["ddi.csv"]),
    ],
    ids=["spectrum", "sweep-separation", "scale-n", "validate-dump-ddi"],
)
def test_every_command_writes_its_artifacts_then_one_manifest(
    command, flags, artifacts, two_emitter_config, tmp_path, capsys
):
    argv = [command, "--config", str(two_emitter_config)]
    assert main(argv + [flag.format(tmp_path) for flag in flags]) == 0
    paths = [str(tmp_path / name) for name in artifacts]
    assert capsys.readouterr().out.splitlines()[-1] == "wrote " + ", ".join(paths)
    manifest_path = tmp_path / f"{artifacts[0]}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["outputs"] == paths
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [two_emitter_config.name, *artifacts, manifest_path.name]
    )


def test_validate_without_dump_writes_nothing(two_emitter_config, tmp_path, capsys):
    assert main(["validate", "--config", str(two_emitter_config)]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == [two_emitter_config.name]


def test_validate_prints_nothing_for_a_rejected_config(tmp_path, capsys):
    # The spacing passes load_config, but the dipole-dipole law fails on it.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"n_emitters": 2, "spacing": 1e-120, "gamma_dr": 1.0}))
    assert main(["validate", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: spacing 1e-120 nm is too small")


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


def test_removed_pole_switch_is_an_unknown_key(tmp_path, capsys):
    # A loss floor is stated as gamma; the switch that added one is gone.
    config = tmp_path / "floor.json"
    config.write_text(json.dumps(TWO_EMITTER | {"regularize": True}))
    out = tmp_path / "never.csv"
    assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: unknown config key 'regularize'\n"
    assert list(tmp_path.iterdir()) == [config]


def test_config_array_root_exits_1(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps([TWO_EMITTER]))
    assert main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "config error: config root must be a JSON object\n"


def test_sweep_without_spacings_exits_1(two_emitter_config, tmp_path, capsys):
    out = tmp_path / "never.csv"
    argv = ["sweep-separation", "--config", str(two_emitter_config), "--out", str(out),
            "--l-points", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "config error: l_points must be >= 1, got 0\n"
    assert not out.exists()


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


def test_missing_required_flags_are_named_in_one_line(capsys):
    assert main(["spectrum", "--refine-peaks"]) == 1
    assert capsys.readouterr().err == (
        "config error: the following arguments are required: --config, --out\n"
    )


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["--version"], *([name, "--help"] for name in cli.COMMANDS),
             ["validate", "--config", "c.json", "-h"]],
    ids=lambda argv: " ".join(argv),
)
def test_help_and_version_print_to_stdout_and_exit_0(argv, capsys):
    assert main(argv) == 0  # and raises no SystemExit
    out, err = capsys.readouterr()
    assert err == ""
    if argv == ["--version"]:
        assert out == f"{photon_router.__version__}\n"
    else:
        assert out.startswith("usage: photon-router ")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_usage_names_every_flag(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: photon-router {command} ")
    flags = cli.COMMANDS[command][-1]
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  --")] == list(flags)


def test_top_level_usage_names_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()[1:]] == list(cli.COMMANDS)


def test_joined_values_parse_as_separate_ones():
    spaced = cli.parse_args([
        "sweep-separation", "--config", "c.json", "--out", "o.csv",
        "--l-min", "-1e1", "--l-points", "7", "--delta-max", "-.5",
    ])
    joined = cli.parse_args([
        "sweep-separation", "--config=c.json", "--out=o.csv",
        "--l-min=-1e1", "--l-points=7", "--delta-max=-.5",
    ])
    assert vars(spaced) == vars(joined)
    assert (joined.config, joined.l_min, joined.l_points, joined.delta_max) == ("c.json", -10.0, 7, -0.5)
    assert (joined.l_max, joined.delta_min, joined.delta_points) == (100.0, None, None)


def test_a_repeated_flag_keeps_its_last_value():
    args = cli.parse_args([
        "spectrum", "--config", "a.json", "--out", "a.csv", "--delta-points", "3",
        "--config=b.json", "--delta-points", "9", "--refine-peaks", "--refine-peaks",
    ])
    assert (args.config, args.out, args.delta_points, args.refine_peaks) == ("b.json", "a.csv", 9, True)


@pytest.mark.parametrize(
    "tail, message",
    [
        (["--refine-peaks=1"], "argument --refine-peaks: ignored explicit argument '1'"),
        (["--delta-points"], "argument --delta-points: expected one argument"),
        (["--delta-points", "2.5"], "argument --delta-points: invalid int value: '2.5'"),
        (["--delta-min=x"], "argument --delta-min: invalid float value: 'x'"),
        (["--bogus", "1"], "unrecognized arguments: --bogus"),
        (["--conf", "c.json"], "unrecognized arguments: --conf"),  # no abbreviations
        (["extra"], "unrecognized arguments: extra"),
    ],
    ids=["value-to-a-switch", "flag-without-value", "invalid-int", "invalid-float",
         "unknown-flag", "abbreviated-flag", "stray-token"],
)
def test_usage_errors_exit_1_in_one_line_and_write_nothing(tail, message, two_emitter_config,
                                                           tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(["spectrum", "--config", str(two_emitter_config), "--out", str(out), *tail])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [two_emitter_config]


@pytest.mark.parametrize("argv", [["spectra", "--config", "c.json"], []], ids=["unknown", "none"])
def test_a_missing_or_unknown_command_exits_1(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: argument command: ") and err.count("\n") == 1
    assert "(choose from spectrum, sweep-separation, scale-n, validate)" in err
    assert not list(tmp_path.iterdir())


def test_main_reads_sys_argv(two_emitter_config, tmp_path, monkeypatch, capsys):
    out = tmp_path / "spectrum.csv"
    argv = ["--config", str(two_emitter_config), "--out", str(out), "--delta-points", "5"]
    monkeypatch.setattr(sys, "argv", ["photon-router", "spectrum", *argv])
    assert main() == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}")


def test_a_run_imports_no_argument_parser(two_emitter_config, tmp_path):
    # In a fresh interpreter: parsing the command line must not import
    # argparse, nor the gettext and locale that it loads for its messages.
    out = tmp_path / "spectrum.csv"
    script = (
        "import sys\n"
        "from photon_router.cli import main\n"
        f"code = main(['spectrum', '--config', {str(two_emitter_config)!r}, '--out', {str(out)!r},"
        " '--delta-points', '21'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    package = Path(cli.__file__).parent.parent
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(package), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"
    assert len(read_csv(out)["delta"]) == 21


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


def test_flux_balance_violation_exits_2(tmp_path, capsys):
    # Rates across the float range solve with a tiny backward error, but
    # T = 5.07 at delta = -1: the run fails instead of writing loss = -4.07.
    config = tmp_path / "spread.json"
    config.write_text(json.dumps({
        "n_emitters": 4, "gamma": 32.75, "gamma_dr": 11.03,
        "gamma_ur": [5e-324, 1.3307240419230212e46, 1.0, 1.1962991164495308e308],
        "spacing": 5.0, "lambda_sp": 33.0, "dipole_angle": 5e-324,
    }))
    out = tmp_path / "never.csv"
    code = main([
        "spectrum", "--config", str(config), "--out", str(out),
        "--delta-min", "-1", "--delta-max", "-0.5", "--delta-points", "2",
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "solver error: flux balance violated (loss -4.07) at delta=-1\n"
    )
    assert not out.exists()


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
        (["--delta-min", "0", "--delta-max", "1.7976931348623157e308", "--delta-points", "4"],
         "detuning window must be finite, within +-4.49e+307"),
        # Negative values that argparse alone would take for options reach the window check.
        (["--delta-min", "-inf", "--delta-max", "1"], "detuning window must be finite"),
        (["--delta-min", "-1.7976931348623157e308", "--delta-max", "0", "--delta-points", "4"],
         "detuning window must be finite, within +-4.49e+307"),
    ],
    ids=["nan", "inf", "negative-points", "empty-window", "beyond-the-grid-limit",
         "negative-inf", "below-the-grid-limit"],
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


@pytest.mark.parametrize("command", GRID_COMMANDS.values(), ids=GRID_COMMANDS.keys())
def test_negative_detunings_in_exponent_form_parse(command, two_emitter_config, tmp_path):
    # argparse takes only -1 and -.5 for negative numbers; -1e2 and -5e-1
    # must not read as unknown options, in either spelling.
    spellings = {
        "plain": ["--delta-min", "-100", "--delta-max", "-0.5"],
        "exponent": ["--delta-min", "-1e2", "--delta-max", "-5e-1"],
        "joined": ["--delta-min=-1e2", "--delta-max=-5e-1"],
    }
    written = {}
    for name, flags in spellings.items():
        out = tmp_path / name / "out.csv"
        argv = [*command, "--config", str(two_emitter_config), "--out", str(out),
                *flags, "--delta-points", "9"]
        assert main(argv) == 0, name
        written[name] = sorted(
            (path.name, path.read_bytes())
            for path in out.parent.iterdir() if not path.name.endswith(".manifest.json")
        )
    assert written["exponent"] == written["plain"] == written["joined"]


def _injected_fault(*args, **kwargs):
    raise ZeroDivisionError("injected fault")


@pytest.mark.parametrize(
    "overrides, fault, code, prefix",
    [
        ({"spacing": 1e-300}, None, 1, "config error: spacing 1e-300 nm is too small"),
        ({"spacing": 1e-103}, None, 1, "config error: spacing 1e-103 nm is too small"),
        ({"spacing": 1e200}, None, 1, "config error: spacing 1e+200 nm is too large"),
        ({"lambda_qd": 1e-250}, None, 1, "config error: spacing 32.75 nm is too large"),
        ({}, _injected_fault, 4, "internal error: ZeroDivisionError: injected fault"),
    ],
    ids=["spacing-underflow", "coupling-overflow", "spacing-r3-overflow",
         "wavelength-r3-overflow", "internal-error"],
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
        ({"n_emitters": 3, "spacing": 2e307, "lambda_sp": 1.0, "lambda_qd": 1e308},
         "theta = 2 pi spacing / lambda_sp is not finite over the chain"),
        ({"spacing": 1e159, "lambda_qd": 1e159, "delta_dependent_phases": True},
         "the step phase is not finite over the chain and detuning window"),
    ],
    ids=["theta-overflow", "rate-overflow", "r-step-overflow", "chain-phase-overflow",
         "step-phase-overflow"],
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
    # b.csv's peak report cannot be written, as its path is a directory: the
    # CSV, written before it, stays behind, but no manifest marks the run complete.
    (tmp_path / "b.peaks.json").mkdir()
    for out in (blocker / "sub.csv", tmp_path / "b.csv"):  # the first's parent is a file
        code = main([
            "spectrum", "--config", str(two_emitter_config), "--out", str(out),
            "--delta-points", "3",
        ])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert not out.with_suffix(".csv.manifest.json").exists()


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


def per_value_csv(header, columns):
    """The writer the %-templates replaced: one "{:.17g}" format per value,
    one ",".join per row."""
    rows = zip(*(map(float, column) for column in columns))
    return "\n".join(header + [",".join(map("{:.17g}".format, row)) for row in rows]) + "\n"


#: Every float class a table can hold: signed zeros, subnormals, the float
#: range's ends, infinities and nan, then anything.
HOSTILE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
     1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
     0.1, -40.0, 1.0 / 3.0]
) | st.floats()


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 7).flatmap(lambda width: st.lists(
    st.lists(HOSTILE_FLOATS, min_size=width, max_size=width), min_size=1, max_size=12)))
def test_table_writer_matches_per_value_format(rows):
    cells = np.array(rows)
    header = ["# header", "a,b"]
    assert cli._csv(header, cells) == per_value_csv(header, list(cells.T))


def long_format_columns(sweep):
    return [
        np.tile(sweep.deltas, sweep.spacings.size),
        np.repeat(sweep.spacings, sweep.deltas.size),
        sweep.routed.ravel(),
        sweep.transmitted.ravel(),
    ]


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 6)), data=st.data())
def test_sweep_writer_matches_per_value_format(shape, data):
    spacings, points = shape
    values = st.lists(HOSTILE_FLOATS, min_size=spacings * points, max_size=spacings * points)
    sweep = SeparationSweep(
        spacings=np.array(data.draw(st.lists(HOSTILE_FLOATS, min_size=spacings,
                                             max_size=spacings))),
        deltas=np.array(data.draw(st.lists(HOSTILE_FLOATS, min_size=points, max_size=points))),
        routed=np.array(data.draw(values)).reshape(shape),
        transmitted=np.array(data.draw(values)).reshape(shape),
    )
    expected = per_value_csv([cli._UNITS_HEADER, "delta,L_nm,Tt,T"], long_format_columns(sweep))
    assert cli._sweep_csv(sweep) == expected


def test_sweep_over_several_solver_calls_writes_per_value_format(two_emitter_config, tmp_path):
    # 25 spacings of 201 two-emitter points: 20 spacings share one solver call.
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep-separation", "--config", str(two_emitter_config), "--out", str(out),
        "--l-points", "25", "--delta-points", "201",
    ]) == 0
    config = validate(SystemConfig(**TWO_EMITTER))
    sweep = sweep_separation(config, (5.0, 100.0), 25, np.linspace(-40.0, 40.0, 201))
    header = [cli._UNITS_HEADER, "delta,L_nm,Tt,T"]
    assert out.read_text() == per_value_csv(header, long_format_columns(sweep))


def half_way_cases(rng, per_k: int) -> np.ndarray:
    """Floats j / 2**(k + 1), j odd, with 18 significant digits: k + 1
    decimals, the last a 5, and 17 - k digits before the point (or k - 17
    zeros after it).  "%.17g" rounds each from exactly half-way."""
    cases = []
    for k in range(1, 25):
        lo = 10.0 ** (16 - k)
        hi = min(10.0 ** (17 - k), 2.0 ** (52 - k))
        j = rng.integers(math.ceil(lo * 2 ** (k + 1)), math.floor(hi * 2 ** (k + 1)), per_k)
        cases.append(np.ldexp((j | 1).astype(float), -(k + 1)))
    return np.concatenate(cases)


def formatter_cases(rng) -> np.ndarray:
    """Just over a million floats, each with both signs: the fast path's
    powers of ten and their neighbours, half-way cases, values spread over
    the fast path and just outside it, and arbitrary bit patterns."""
    powers = np.concatenate([10.0 ** np.arange(cells.LOW - 2, cells.HIGH + 3), cells.BOUNDS])
    cases = [
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan],
        half_way_cases(rng, 5_000),
        10.0 ** rng.uniform(cells.LOW - 2, cells.HIGH + 2, 200_000),
        rng.random(130_000),
        rng.integers(0, 2**63, 50_000, dtype=np.int64).view(np.float64),
        rng.integers(1, 2**52, 1_000, dtype=np.int64).view(np.float64),  # subnormals
    ]
    values = np.concatenate([np.asarray(case, dtype=float) for case in cases])
    return np.concatenate([values, -values])


def test_formatter_matches_percent_format_on_a_million_values():
    from decimal import Decimal

    ties = [Decimal(value).as_tuple().digits for value in half_way_cases(np.random.default_rng(1), 50)]
    assert all(len(digits) == 18 and digits[-1] == 5 for digits in ties)
    values = formatter_cases(np.random.default_rng(27))
    assert values.size >= 10**6
    for block in np.array_split(values, 20):
        got = cli._csv(["#"], block[:, None])
        want = "#\n" + "".join(["%.17g\n" % value for value in block.tolist()])
        if got != want:
            pairs = zip(want.splitlines(), got.splitlines())
            assert [pair for pair in pairs if pair[0] != pair[1]][:5] == []


def test_data_artifacts_repeat_byte_for_byte_in_one_process(two_emitter_config, tmp_path):
    flags = ["--delta-min", "-40", "--delta-max", "40", "--delta-points", "81"]
    runs = {
        "spectrum": (["--refine-peaks"], ["s.csv", "s.peaks.json"]),
        "sweep-separation": (["--l-points", "30"], ["w.csv"]),
        "scale-n": (["--n-list", "1,2,3"], ["n.json"]),
    }
    for command, (extra, artifacts) in runs.items():
        written = []
        for run in ("first", "second"):
            folder = tmp_path / command / run
            argv = [command, "--config", str(two_emitter_config), "--out",
                    str(folder / artifacts[0]), *flags, *extra]
            assert main(argv) == 0
            written.append([(folder / name).read_bytes() for name in artifacts])
        assert written[0] == written[1], command


@pytest.mark.parametrize(
    "config, command, message",
    [
        (TWO_EMITTER | {"n_emitters": EMITTER_LIMIT + 1}, ["spectrum"],
         f"n_emitters must be <= {EMITTER_LIMIT}, got {EMITTER_LIMIT + 1}"),
        (TWO_EMITTER, ["spectrum", "--delta-points", str(POINTS_LIMIT + 1)],
         f"detuning points must be <= {POINTS_LIMIT}, got {POINTS_LIMIT + 1}"),
        (TWO_EMITTER, ["sweep-separation", "--l-points", str(SWEEP_POINTS_LIMIT)],
         f"a sweep of {SWEEP_POINTS_LIMIT} spacings x 201 detunings exceeds"),
    ],
    ids=["emitters", "detuning-points", "sweep-points"],
)
def test_oversized_runs_exit_1_before_allocating(config, command, message, tmp_path, capsys):
    # Each is rejected by validate or sweep_separation's argument checks.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never.csv"
    assert main([command[0], "--config", str(path), "--out", str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("config error: ") == 1
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


#: Finite but hostile numbers: subnormals, the float range's ends, spacings
#: and wavelengths far beyond physical ones, and a few ordinary values.
EXTREMES = [5e-324, 1e-320, 2.2e-308, 1e-300, 1e-250, 1e-103, 0.0, -1e308, 1e-3, 1.0,
            6.86, 11.03, 32.75, 211.8, 655.0, 1e104, 1e200, 1e308]
#: Rates, lengths and scales: mostly non-negative, so that most configs pass
#: validation and reach the solver.
HOSTILE_SIZES = st.sampled_from(EXTREMES) | st.floats(min_value=0.0, allow_infinity=False)
HOSTILE_REALS = (st.sampled_from(EXTREMES + [-x for x in EXTREMES])
                 | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def hostile_configs(draw):
    """The two-emitter reference config with about half its fields hostile."""
    n = draw(st.integers(min_value=1, max_value=4))
    rates = HOSTILE_SIZES | st.lists(HOSTILE_SIZES, min_size=n, max_size=n)
    hostile = {
        "dipole_angle": HOSTILE_REALS, "ddi_strength": HOSTILE_REALS,
        **dict.fromkeys(("spacing", "lambda_qd", "lambda_sp", "gamma0_mhz"), HOSTILE_SIZES),
        **dict.fromkeys(("gamma", "gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul"), rates),
    }
    config = TWO_EMITTER | {"n_emitters": n, "ddi_strength": 23.1, "gamma_dl": 0.0,
                            "gamma_ul": 0.0, "dipole_angle": math.pi / 2,
                            "gamma0_mhz": 7.5}
    for name, values in hostile.items():
        config[name] = draw(st.just(config[name]) | values)
    low, high = sorted([draw(HOSTILE_REALS), draw(HOSTILE_REALS)])
    return config | {
        "ddi_mode": draw(st.sampled_from(["auto", "manual", "off"])),
        "delta_dependent_phases": draw(st.booleans()),
        "detuning": {"min": low, "max": high, "points": draw(st.integers(1, 5))},
    }


def all_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in all_numbers(child)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def written_numbers(path):
    if path.suffix == ".json":
        return all_numbers(json.loads(path.read_text()))
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [float(v) for row in rows[1:] for v in row.split(",")]  # rows[0]: header


FIVE_POINTS = TWO_EMITTER | {"detuning": {"min": -20.0, "max": 20.0, "points": 5}}


@settings(max_examples=50, deadline=None)
@given(config=hostile_configs(),
       spacings=st.just((5.0, 100.0)) | st.tuples(HOSTILE_SIZES, HOSTILE_SIZES),
       refine=st.booleans())
@example(config=FIVE_POINTS | {"spacing": 1e200}, spacings=(5.0, 100.0), refine=True)
@example(config=FIVE_POINTS | {"lambda_qd": 1e-250}, spacings=(5.0, 100.0), refine=True)
def test_main_exits_0_to_3_with_finite_artifacts(config, spacings, refine):
    """Every command ends in a result or a typed error, never an internal
    error (4), a traceback or a warning; a success writes only finite numbers."""
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        config_path = folder / "config.json"
        config_path.write_text(json.dumps(config))
        n_list = ",".join(str(n) for n in range(1, config["n_emitters"] + 1))
        l_min, l_max = sorted(spacings)
        commands = [
            ["spectrum", "--out", "s.csv", *(["--refine-peaks"] if refine else [])],
            ["sweep-separation", "--out", "w.csv", f"--l-min={l_min!r}",
             f"--l-max={l_max!r}", "--l-points", "2"],
            ["scale-n", "--out", "n.json", "--n-list", n_list],
            ["validate", "--dump-ddi", "d.csv"],
        ]
        for command, *flags in commands:
            outdir = folder / command
            argv = [command, "--config", str(config_path)]
            argv += [str(outdir / f) if f.endswith((".csv", ".json")) else f for f in flags]
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2, 3), (command, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()
            assert not caught, (command, [str(w.message) for w in caught])
            if code == 0:
                written = list(outdir.iterdir())
                assert written
                for path in written:
                    numbers = written_numbers(path)
                    assert all(math.isfinite(x) for x in numbers), (command, path.name)
