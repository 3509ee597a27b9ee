"""No module-level import in the package or the tests goes unused, no
module-level private name in the package goes unreferenced, and every name
and keyword that the benchmark in ``perfbench/`` calls on the package exists.

``vnfplace/__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
import inspect
from pathlib import Path

import vnfplace

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


def keyword_names(tree, call):
    """The keywords ``call`` passes by name, including those of a ``**name``
    built in the same file as ``name = dict(k=...)`` or ``name["k"] = ...``."""
    names = [kw.arg for kw in call.keywords if kw.arg]
    packed = {kw.value.id for kw in call.keywords
              if kw.arg is None and isinstance(kw.value, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in packed and isinstance(node.slice, ast.Constant)):
            names.append(node.slice.value)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and any(isinstance(t, ast.Name) and t.id in packed for t in node.targets)):
            names += [kw.arg for kw in node.value.keywords if kw.arg]
    return names


def perfbench_uses():
    """(place, name, keywords) of every ``vp.<name>`` and ``self.vp.<name>``
    in ``perfbench/*.py``, where ``vp`` is the imported package; keywords are
    empty unless the name is called."""
    uses = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    isinstance(node.value, ast.Name) and node.value.id == "vp"
                    or isinstance(node.value, ast.Attribute) and node.value.attr == "vp"):
                call = calls.get(id(node))
                keywords = keyword_names(tree, call) if call else []
                uses.append((f"{path.name}:{node.lineno}", node.attr, keywords))
    return uses


def test_perfbench_calls_only_what_the_package_exports():
    uses = perfbench_uses()
    assert {"solve_lp", "ExperimentConfig", "simulate_availability"} <= {n for _, n, _ in uses}
    bad = []
    for place, name, keywords in uses:
        try:
            target = getattr(vnfplace, name)
            if keywords:
                inspect.signature(target).bind_partial(**dict.fromkeys(keywords))
        except (AttributeError, TypeError) as exc:
            bad.append(f"{place} vp.{name}: {exc}")
    assert bad == []
