"""The names the benchmark harness patches or imports still resolve.

`perfbench/child.py` wraps the functions listed in its `TRACED` table and
`perfbench/check.py` imports its oracles from the package; a rename there
fails every benchmark command, so the surface is pinned here.  So is the
BLAS thread count that `enclosure.cli` chooses before numpy loads.
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

import pytest

import enclosure

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _resolve(modname, dotted):
    obj = importlib.import_module(modname)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)         # main() runs only as a script
    return module


def _load_child():
    return _load_perfbench("child")


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
    its spans nest, and its `cli.main` span is the `main` interval; on
    `reconstruct` and `sweep` at desk size and on a `reconstruct_fine`
    config."""
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps(_load_perfbench("workloads").fine_config(1)),
                    encoding="utf-8")
    configs = ROOT / "configs"
    shapes = [("reconstruct", configs / "pec_ball.json"),
              ("sweep", configs / "pec_ball.json"),
              ("sweep", configs / "transmission_ball.json"),
              ("reconstruct", fine)]
    for n, (command, config) in enumerate(shapes):
        label = f"{command} {config.name}"
        outputs = {}
        for trace in ("0", "1"):
            out, marks = tmp_path / f"out{n}_{trace}", tmp_path / f"marks{n}_{trace}.json"
            subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(marks),
                            trace, "--", command, "--config", str(config),
                            "--out", str(out)],
                           capture_output=True, env=_child_env(), cwd=ROOT, check=True)
            outputs[trace] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        expected = ["sweep.csv"] if command == "sweep" else [
            "estimates.csv", "hull.off", "report.txt"]
        assert sorted(outputs["0"]) == expected, label
        assert outputs["0"] == outputs["1"], label
        recorded = json.loads(marks.read_text(encoding="utf-8"))
        spans = recorded["spans"]
        assert spans and spans[0][0] == "cli.main", label
        for name, parent, start, end, _ in spans:
            assert start <= end, (label, name)
            if parent >= 0:
                assert spans[parent][2] <= start and end <= spans[parent][3], (label, name)
        main0, main1 = recorded["main"]
        assert abs((spans[0][3] - spans[0][2]) - (main1 - main0)) <= 1e-3, label


# the benchmark's engine mark: wrap `cli._engine_for` as child.py does, and
# report the modules that `main()` loads after the engine is returned
_POST_ENGINE = """
import json, sys
import enclosure.cli as cli
build = cli._engine_for
ready = []
def engine_for(config):
    engine = build(config)
    ready.append(set(sys.modules))
    return engine
cli._engine_for = engine_for
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, len(ready), sorted(set(sys.modules) - ready[0]),
                  "numpy.ma" in sys.modules]))
"""


@pytest.mark.parametrize("config", ["pec_ball", "transmission_ball"])
@pytest.mark.parametrize("command", ["reconstruct", "sweep"])
def test_main_imports_nothing_after_the_engine(command, config, tmp_path):
    """Every module a command needs is loaded before its engine is built,
    so the engine mark ends all import time; numpy.ma is never loaded."""
    argv = [command, "--config", str(ROOT / "configs" / f"{config}.json"),
            "--out", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", _POST_ENGINE, *argv],
                         capture_output=True, text=True, env=_child_env(),
                         check=True).stdout
    rc, n_engines, loaded, has_ma = json.loads(out.splitlines()[-1])
    assert (rc, n_engines) == (0, 1)
    assert loaded == []
    assert not has_ma


# the BLAS thread count that `enclosure.cli` chooses before numpy loads
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_LINUX = os.path.isdir("/proc/self/task")
_THREADS = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None"


def _fresh(code, *argv, **preset):
    """The JSON of the last stdout line of `python -c code *argv`, run in a
    fresh interpreter with no BLAS thread variable other than `preset`."""
    env = {k: v for k, v in _child_env().items() if k not in _BLAS_VARS}
    env.update(preset)
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env=env, cwd=ROOT, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.skipif(not _LINUX, reason="threads are counted in /proc/self/task")
def test_cli_import_chooses_one_blas_thread():
    code = ("import json, os; import enclosure.cli; "
            f"print(json.dumps([{_THREADS}, os.environ.get('OPENBLAS_NUM_THREADS')]))")
    assert _fresh(code) == [1, "1"]


def test_preset_blas_threads_win_and_leave_the_outputs(tmp_path):
    """A preset OPENBLAS_NUM_THREADS keeps its pool, and `reconstruct`
    writes the same bytes with it as with the CLI's one thread."""
    code = ("import json, os, sys; from enclosure.cli import main; "
            f"rc = main(sys.argv[1:]); print(json.dumps([rc, {_THREADS}]))")
    config = str(ROOT / "configs" / "pec_ball.json")
    outputs = []
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"out{len(outputs)}"
        rc, threads = _fresh(code, "reconstruct", "--config", config, "--out", str(out),
                             **preset)
        assert rc == 0
        if _LINUX:      # OpenBLAS starts at most one thread per usable CPU
            assert threads == min(int(preset.get("OPENBLAS_NUM_THREADS", 1)),
                                  len(os.sched_getaffinity(0)))
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["estimates.csv", "hull.off", "report.txt"]
    assert outputs[0] == outputs[1]


def test_cli_import_after_numpy_leaves_the_environment():
    code = ("import json, os; import numpy; before = dict(os.environ); "
            "import enclosure.cli; print(json.dumps(dict(os.environ) == before))")
    assert _fresh(code) is True


def test_package_import_loads_no_numpy_and_other_modules_set_nothing():
    code = ("import json, os, sys; import enclosure; bare = 'numpy' in sys.modules; "
            "import enclosure.config, enclosure.indicator, enclosure.recon, "
            "enclosure.mathkit.hull, enclosure.selftest; "
            "print(json.dumps([bare, 'numpy' in sys.modules, "
            "[k for k in os.environ if k in " + repr(_BLAS_VARS) + "]]))")
    assert _fresh(code) == [False, True, []]
