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
