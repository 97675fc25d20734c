"""`python -O` changes what a program does only through `assert`
statements (removed), `__debug__` (False), `sys.flags` (which reports
the flag) and code that catches the `AssertionError` a removed assert
would have raised. No module of the package uses any of them, so every
command prints the same with and without -O, and CI runs its commands
under -O alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubedist"


def _optimize_dependent(tree):
    """(line, what) for each construct in tree whose behaviour -O changes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id in ("__debug__", "AssertionError"):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in ("__debug__", "AssertionError"):
            yield node.lineno, node.attr
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "flags"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            yield node.lineno, "sys.flags"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name == "flags" for alias in node.names):
                yield node.lineno, "sys.flags"


def test_no_module_depends_on_python_O():
    paths = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "cli.py", "negtype.py", "search.py", "verify.py"} <= {p.name for p in paths}
    found = [
        (path.name, line, what)
        for path in paths
        for line, what in _optimize_dependent(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_each_construct_is_found():
    source = (
        "import sys\n"
        "from sys import flags\n"
        "assert x\n"
        "if __debug__:\n"
        "    y = sys.flags.optimize\n"
        "try:\n"
        "    pass\n"
        "except AssertionError:\n"
        "    pass\n"
        "z = builtins.AssertionError\n"
    )
    assert sorted(_optimize_dependent(ast.parse(source))) == [
        (2, "sys.flags"),
        (3, "assert"),
        (4, "__debug__"),
        (5, "sys.flags"),
        (8, "AssertionError"),
        (10, "AssertionError"),
    ]
