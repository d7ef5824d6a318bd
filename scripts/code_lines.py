#!/usr/bin/env python3
"""Count the code lines of Python modules.

    python3 scripts/code_lines.py PATH [PATH ...]

A code line holds a token of code: blank lines, comment lines and the
docstrings of modules, classes and functions do not count, while every line
of a statement or of another string does.  Each PATH is a module or a
directory, whose ``*.py`` files are counted recursively.  Prints one
``count path`` line per module, then ``count total``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def modules(paths: list[Path]) -> list[Path]:
    """The modules named by ``paths``, directories expanded, in order."""
    return [m for path in paths for m in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    total = 0
    for module in modules(parser.parse_args(argv).paths):
        count = code_lines(module.read_text())
        total += count
        print(f"{count:6d} {module}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
