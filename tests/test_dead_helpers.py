import ast
import types
from pathlib import Path

import dakc

SOURCES = sorted(Path(dakc.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# the folders whose modules must read every name they import
IMPORTING = ("src/dakc", "tests", "tools", "demos")


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    # every module-level def, class and assignment whose name starts with
    # "_", dunders such as __all__ aside
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.append((name.id, node))
    return [(name, node) for name, node in found if name.startswith("_") and not name.endswith("__")]


def _references(node: ast.AST, skip: ast.AST | None = None) -> list[str]:
    # names read, attributes taken and names imported, outside ``skip``
    if node is skip:
        return []
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
    else:
        names = []
    for child in ast.iter_child_nodes(node):
        names += _references(child, skip)
    return names


def test_every_private_module_name_is_used_in_the_package():
    # a private helper, class or constant that nothing in dakc reads, past
    # its own definition, is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    everywhere = {name: _references(tree) for name, tree in trees.items()}
    checked = 0
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            checked += 1
            # what the definition itself reads, a recursive call say, does
            # not count as a use
            used = name in _references(tree, skip=node) or any(
                name in refs for other, refs in everywhere.items() if other != module
            )
            if not used:
                unused.append(f"{module}:{name}")
    assert checked >= 30
    assert unused == []


def test_dead_helper_guard_flags_an_unused_definition():
    tree = ast.parse(
        "_USED = 1\n_SPARE = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n"
        "def run():\n    return 0\n"
    )
    names = [name for name, node in _private_definitions(tree) if name not in _references(tree, skip=node)]
    assert names == ["_SPARE", "_recursive"]


def test_all_lists_every_public_name_once_in_order():
    # a removed name left in __all__, or a new export missing from it, shows
    # up as a difference against what the package actually binds
    public = {
        name
        for name, value in vars(dakc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert dakc.__all__ == sorted(set(dakc.__all__))
    assert set(dakc.__all__) == public


def _unread_imports(tree: ast.Module) -> list[str]:
    # every name an import binds that no expression in the module reads;
    # ``from __future__`` binds nothing
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_imported_name_is_read_in_its_module():
    # an import nothing reads is dead; the package's __init__ imports the
    # names it lists in __all__ to export them
    checked = 0
    unread = []
    for folder in IMPORTING:
        for path in sorted((ROOT / folder).glob("*.py")):
            names = _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
            if path == Path(dakc.__file__).resolve():
                names = [name for name in names if name not in dakc.__all__]
            unread += [f"{folder}/{path.name}:{name}" for name in names]
            checked += 1
    assert checked >= 30
    assert unread == []


def test_unread_import_guard_flags_an_unread_name():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from x import a, b as c\nprint(os.sep, c)\n"
    )
    assert _unread_imports(tree) == ["a", "j"]
