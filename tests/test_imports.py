"""No module-level import in the package or the tests goes unused, and no
module-level private name in the package goes unreferenced.

``vnfplace/__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    files = [p for p in sorted((ROOT / "src" / "vnfplace").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert [bad for path in files for bad in unused_imports(path)] == []


def dead_private_names(paths):
    """Module-level private functions, classes and constants of ``paths``
    that their own module never reads and no module imports or reads as an
    attribute."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    shared = set()      # names imported from, or read off, another object
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                shared.add(node.attr)
    dead = []
    for path, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names
                     if name.startswith("_") and not name.endswith("__")
                     and name not in read | shared]
    return dead


def test_no_dead_private_names_in_the_package():
    assert dead_private_names(sorted((ROOT / "src" / "vnfplace").glob("*.py"))) == []
