"""The names the benchmark harness patches or imports still resolve.

`perfbench/child.py` wraps the functions listed in its `TRACED` table and
`perfbench/check.py` imports its oracles from the package; a rename there
fails every benchmark command, so the surface is pinned here.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import enclosure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(modname, dotted):
    obj = importlib.import_module(modname)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)          # main() runs only as a script
    names = [(mod, attr) for mod, attr, *_ in child.TRACED]
    names += [("enclosure.cli", "_engine_for"), ("enclosure.cli", "main")]
    for mod, attr in names:
        assert callable(_resolve(mod, attr)), f"{mod}.{attr}"


def test_check_imports_and_calls_resolve():
    tree = ast.parse((PERFBENCH / "check.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("enclosure"):
            for alias in node.names:
                imported[alias.asname or alias.name] = _resolve(node.module, alias.name)
    assert {"CgoMode", "build_probe", "Geometry", "solution_pec", "auto_degree",
            "volume_indicator_pec"} <= set(imported)
    # every call check.py makes binds to the current signature
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            inspect.signature(imported[node.func.id]).bind(
                *node.args, **{kw.arg: None for kw in node.keywords})


def test_every_public_name_exists():
    modules = [enclosure] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(enclosure.__path__, "enclosure.")]
    for mod in modules:
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
