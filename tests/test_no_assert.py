"""Invariant checks in the package survive ``python -O``.

`python -O` strips `assert` statements, so an invariant violation that an
`assert` guards would go on silently and exit 0 instead of 2.  The package
raises `AssertionError` explicitly instead, and the CLI turns it into exit
code 2.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropbn"


def test_no_module_of_the_package_has_an_assert_statement():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
