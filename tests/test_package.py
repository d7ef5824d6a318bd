"""What the installed package holds: only modules the program runs."""

import ast
from pathlib import Path

import photon_router

PACKAGE = Path(photon_router.__file__).parent

#: Entry points: the re-exporting package and the command line.
ENTRY_POINTS = {"__init__", "cli"}


def relative_imports(path: Path) -> set[str]:
    """Package modules that ``path`` imports, by module name."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import module
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_every_library_module_is_run_by_the_package():
    # A module only __init__ imports is re-exported but never run, like a
    # test oracle; those live in tests/.
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    used = set()
    for name, path in modules.items():
        if name != "__init__":
            used |= relative_imports(path)
    unused = sorted(set(modules) - ENTRY_POINTS - used)
    assert unused == [], f"package modules no library module imports: {unused}"
