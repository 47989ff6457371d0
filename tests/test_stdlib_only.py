import ast
import sys
from pathlib import Path

import dakc

SOURCES = sorted(Path(dakc.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    # relative imports stay inside dakc; every absolute one must be stdlib
    assert len(SOURCES) >= 10
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def _gone_under_python_O(source: str) -> list[int]:
    # python -O strips assert statements and fixes __debug__ to False, so a
    # check written either way would vanish there
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]


def test_package_checks_hold_under_python_O():
    found = [(path.name, line) for path in SOURCES for line in _gone_under_python_O(path.read_text(encoding="utf-8"))]
    assert found == []


def test_python_O_guard_flags_asserts_and_debug_reads():
    assert _gone_under_python_O("x = 1\nassert x\nif __debug__:\n    y = 2\n") == [2, 3]
