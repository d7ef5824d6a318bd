import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce.py"


@pytest.fixture(scope="module")
def reproduce():
    spec = importlib.util.spec_from_file_location("reproduce", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_subset_writes_only_its_folder(reproduce, tmp_path):
    reproduce.main(["--outdir", str(tmp_path), "single_emitter"])
    assert [p.name for p in tmp_path.iterdir()] == ["single_emitter"]
    folder = tmp_path / "single_emitter"
    for name in ("symmetric_lossless", "symmetric_lossy", "chiral_lossless",
                 "chiral_lossy"):
        for suffix in (".json", ".csv", ".peaks.json", ".csv.manifest.json"):
            assert (folder / f"{name}{suffix}").is_file()
    config = json.loads((folder / "symmetric_lossy.json").read_text())
    assert config["gamma"] == 6.86
    assert config["gamma_dl"] == config["gamma_ul"] == 11.03
    assert config["ddi_mode"] == "off"


def test_every_experiment_uses_valid_cli_arguments(reproduce):
    from photon_router.cli import build_parser

    for runs in reproduce.EXPERIMENTS.values():
        for command, _, _, artifact, flags in runs:
            build_parser().parse_args(
                [command, "--config", "c.json", "--out", artifact, *flags]
            )


def test_unknown_experiment_is_a_usage_error(reproduce, capsys):
    with pytest.raises(SystemExit) as exit_:
        reproduce.main(["figure-9"])
    assert exit_.value.code == 2
    assert "unknown experiment 'figure-9'" in capsys.readouterr().err
