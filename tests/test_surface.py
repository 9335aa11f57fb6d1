"""The names the benchmark harness patches or imports still resolve.

`perfbench/child.py` wraps the functions listed in its `TRACED` table and
`perfbench/check.py` imports its oracles from the package; a rename there
fails every benchmark command, so the surface is pinned here.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import enclosure

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _resolve(modname, dotted):
    obj = importlib.import_module(modname)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _load_child():
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)          # main() runs only as a script
    return child


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENCLOSURE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_traced_names_resolve():
    child = _load_child()
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


def test_cli_import_loads_every_traced_module():
    """`Tracer.install` imports each traced module; one that `import
    enclosure.cli` has not loaded yet would be imported outside every span."""
    modules = sorted({mod for mod, *_ in _load_child().TRACED})
    code = ("import json, sys; import enclosure.cli; "
            f"print(json.dumps([m for m in {modules!r} if m not in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_child_env(), check=True).stdout
    assert json.loads(out) == []


def test_child_traced_run_matches_plain_run(tmp_path):
    """The benchmark's traced run writes the same bytes as its plain run,
    and its spans nest."""
    outputs = {}
    for trace in ("0", "1"):
        out, marks = tmp_path / f"out{trace}", tmp_path / f"marks{trace}.json"
        subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(marks),
                        trace, "--", "reconstruct", "--config",
                        str(ROOT / "configs" / "pec_ball.json"), "--out", str(out)],
                       capture_output=True, env=_child_env(), cwd=ROOT, check=True)
        outputs[trace] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs["0"]) == ["estimates.csv", "hull.off", "report.txt"]
    assert outputs["0"] == outputs["1"]
    spans = json.loads(marks.read_text(encoding="utf-8"))["spans"]
    assert spans and spans[0][0] == "cli.main"
    for name, parent, start, end, _ in spans:
        assert start <= end, name
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3], name
