"""No module-level import in the package or the tests goes unused, no
module-level private name in the package goes unreferenced, no dataclass
field of the package goes unread, every name and keyword that the benchmark
in ``perfbench/`` calls on the package exists, the README's config blocks
list exactly the config fields, the package solves an instance, checks its
availability and runs an experiment without loading scipy or yaml, and
also with scipy blocked, its import leaves the process pool unloaded, and
no module of the package imports scipy.

``vnfplace/__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
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


def unread_dataclass_fields(declared, readers):
    """Fields of the dataclasses declared in ``declared`` that no file of
    ``readers`` reads as an attribute."""
    read = set()
    for path in readers:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for path in declared:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", ())]
            if not (isinstance(node, ast.ClassDef)
                    and any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)):
                continue
            unread += [f"{path.relative_to(ROOT)}:{item.lineno} {node.name}.{item.target.id}"
                       for item in node.body if isinstance(item, ast.AnnAssign)
                       and isinstance(item.target, ast.Name) and item.target.id not in read]
    return unread


def test_every_dataclass_field_is_read():
    # the readers: the package, the benchmark and the acceptance criteria;
    # a field read only by its own unit tests reports nothing anyone uses
    package = sorted((ROOT / "src" / "vnfplace").glob("*.py"))
    readers = package + sorted((ROOT / "perfbench").glob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py"]
    # the instance document reads each field of a record by name, from
    # ``dataclasses.fields``, so a field it writes is read
    inst = vnfplace.generate(vnfplace.GeneratorConfig(request_count=1, mec_count=1))
    doc = vnfplace.instance_to_dict(inst)
    written = {f"{type(record).__name__}.{key}"
               for record, part in [(inst.failure_model, doc["failure_model"]),
                                    (inst.mecs[0], doc["mecs"][0]),
                                    (inst.requests[0], doc["requests"][0])]
               for key in part}
    assert [field for field in unread_dataclass_fields(package, readers)
            if field.split()[1] not in written] == []


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


def readme_config_keys():
    """The top-level keys of each ``yaml`` block in the README, commented-out
    keys included; indented (nested) keys are not top-level."""
    blocks = re.findall(r"^```yaml\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    return [set(re.findall(r"^(?:# )?([a-z_]+):", block, flags=re.M)) for block in blocks]


def test_readme_config_blocks_list_every_config_field():
    names = [{f.name for f in dataclasses.fields(cls)}
             for cls in (vnfplace.GeneratorConfig, vnfplace.ExperimentConfig)]
    assert readme_config_keys() == names


_COLD_PIPELINE = """
import os, sys, tempfile
if sys.argv[1:] == ["block-scipy"]:
    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")
    sys.meta_path.insert(0, BlockScipy())
import vnfplace as vp

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))

inst = vp.generate(vp.GeneratorConfig(request_count=8, mec_count=3, seed=4))
frac = vp.solve_lp(vp.build_relaxed_program(inst))
sol = vp.greedy_repair(inst, vp.randomized_round(frac, inst, seed=1))
vp.solve_exact(inst)
report = vp.simulate_availability(inst, sol, trials=1000, seed=2)
assert any(row.delivered for row in report.per_request)
assert vp.consistent_with_threshold(995, 1000, 0.01)
assert not vp.consistent_with_threshold(900, 1000, 0.01)
print(loaded())
mean, half = vp.confidence_interval([1.0, 2.0, 4.0])
assert mean == 7 / 3 and half > 0
with tempfile.TemporaryDirectory() as tmp:
    cfg = vp.ExperimentConfig(request_counts=(4,), runs=2, generator=vp.GeneratorConfig(mec_count=2))
    paths = vp.run_experiment(cfg).write(tmp)
    assert all(os.path.getsize(path) for path in paths.values())
print(loaded())
with tempfile.TemporaryDirectory() as tmp:
    vp.save_instance(inst, os.path.join(tmp, "i.yaml"))
    assert vp.instance_to_dict(vp.load_instance(os.path.join(tmp, "i.yaml"))) == vp.instance_to_dict(inst)
print("yaml" in sys.modules)
"""


def run_cold(source, *args):
    """What ``source`` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", source, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def run_cold_pipeline(*args):
    """The lines _COLD_PIPELINE prints, run in a fresh interpreter."""
    return run_cold(_COLD_PIPELINE, *args).split("\n")[:3]


def test_solving_from_a_cold_import_leaves_scipy_and_yaml_unloaded():
    # scipy and yaml double the import time and add about 30 MB of RSS; the
    # package imports yaml where a function needs it, and those still work:
    # solving, the availability check and an experiment load neither, and
    # saving an instance loads yaml
    assert run_cold_pipeline() == ["[]", "[]", "True"]


def test_the_import_leaves_the_process_pool_unloaded():
    # only jobs > 1 starts worker processes; concurrent.futures and
    # multiprocessing, with logging, added about 50 ms and 2 MB to the import
    loaded = run_cold("import sys, vnfplace\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert loaded == "[]\n"


def test_the_cold_pipeline_runs_with_scipy_blocked():
    # scipy is a dependency of the tests alone, so every step runs while
    # each import of scipy fails
    assert run_cold_pipeline("block-scipy") == ["[]", "[]", "True"]


def scipy_imports(path):
    """(file, enclosing function) of every import of scipy in ``path``;
    the function is None at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append((path.name, scope))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if defines else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_no_module_in_the_package_imports_scipy():
    # scipy serves the tests alone: the HiGHS referee and scipy.stats
    found = [hit for path in sorted((ROOT / "src" / "vnfplace").glob("*.py"))
             for hit in scipy_imports(path)]
    assert found == []
