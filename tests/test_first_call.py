import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "first_call.py"


@pytest.fixture(scope="module")
def first_call():
    spec = importlib.util.spec_from_file_location("first_call", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clean_copy(target: Path) -> Path:
    """The package sources without bytecode, as a tree to compare."""
    shutil.copytree(ROOT / "src", target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


def test_one_tree_against_itself(first_call, tmp_path, capsys):
    tree = clean_copy(tmp_path / "src")
    first_call.main(["sweep-separation-n2", str(tree), str(tree), "--calls", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [str(tree), str(tree), "change"]
    assert "minflt" in lines[0] and "(median of 1)" in lines[0]


def test_tree_with_bytecode_is_refused(first_call, tmp_path, capsys):
    tree = clean_copy(tmp_path / "src")
    (tree / "photon_router" / "__pycache__").mkdir()
    with pytest.raises(SystemExit) as exit_:
        first_call.main(["spectrum-n100-sym", str(tree), str(tree)])
    assert exit_.value.code == 2
    assert "holds __pycache__" in capsys.readouterr().err


def test_tree_without_the_package_is_refused(first_call, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        first_call.main(["spectrum-n100-sym", str(tmp_path), str(tmp_path)])
    assert exit_.value.code == 2
    assert "holds no photon_router package" in capsys.readouterr().err
