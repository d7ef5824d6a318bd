import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

# Code lines: import, class, sides, def, text (2), the string after it,
# return (2), async def.  Docstrings, comments and blank lines do not count.
SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a trailing comment


class Shape:
    """Class docstring."""

    sides = 4

    def area(self, side):
        """Function docstring."""
        # a comment line
        text = """a string
        that is code"""
        """a string, not a docstring"""
        return (side *
                side)


async def later():
    """Only a docstring."""
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_docstrings_comments_or_blanks(code_lines):
    assert code_lines.code_lines(SNIPPET) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    (tmp_path / "c.py").write_text("y = 2\nz = 3\n")
    code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "c.py")])
    assert capsys.readouterr().out.splitlines() == [
        f"    10 {tmp_path / 'pkg' / 'a.py'}",
        f"     1 {tmp_path / 'pkg' / 'b.py'}",
        f"     2 {tmp_path / 'c.py'}",
        "    13 total",
    ]
