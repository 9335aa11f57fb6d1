import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from enclosure import indicator
from enclosure.cli import main
from enclosure.mathkit import vsh
from enclosure.config import MAX_ROWS, load_config

BASE = {
    "problem": "pec",
    "geometry": {"r_obstacle": 0.5, "r_domain": 1.0},
    "wave_number": 1.0,
    "tau_grid": [6.0, 8.0, 10.0, 12.0],
    "t_grid": [0.3, 0.7],
    "directions": {"kind": "explicit",
                   "vectors": [[0, 0, 1], [1, 0, 0], [0, 1, 0],
                               [0, 0, -1], [-1, 0, 0], [0, -1, 0]]},
    "truncation_degree": 28,
    "truth_radius": 0.5,
}

RECON = dict(BASE)
RECON["tau_grid"] = {"start": 14.0, "stop": 30.0, "count": 8}
RECON["truncation_degree"] = 64


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = [os.path.join(ROOT, "configs", f"{name}.json")
           for name in ("pec_ball", "transmission_ball")]


def _python(*args, **kwargs):
    """Run `python ARGS` in a fresh interpreter with `src` on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, **kwargs)


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys):
    rc = main(["validate", "--config", write_config(tmp_path, BASE)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["truncation_degree"] == 28
    assert out["problem"] == "pec"


def test_validate_prints_auto_degree(tmp_path, capsys):
    doc = dict(BASE)
    doc.pop("truncation_degree")
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["truncation_degree"] == math.ceil(1.5 * math.sqrt(145.0)) + 10


INVALID_CONFIGS = [
    ("swapped radii", dict(BASE, geometry={"r_obstacle": 1.0, "r_domain": 0.5}),
     "geometry"),
    ("equal radii", dict(BASE, geometry={"r_obstacle": 1.0, "r_domain": 1.0}),
     "geometry"),
    ("mu gives zero inside", dict(BASE, problem="transmission",
                                  medium={"mu_contrast": 1.0}), "mu_contrast"),
    ("negative wave number", dict(BASE, wave_number=-2.0), "wave_number"),
    ("unknown problem", dict(BASE, problem="dielectric"), "problem"),
    ("empty tau grid", dict(BASE, tau_grid=[]), "tau_grid"),
    ("unsorted t grid", dict(BASE, t_grid=[0.7, 0.3]), "t_grid"),
    ("negative tau", dict(BASE, tau_grid=[-1.0, 2.0]), "tau_grid"),
    ("bad direction kind", dict(BASE, directions={"kind": "cube"}), "directions"),
    ("zero direction vector", dict(BASE, directions={
        "kind": "explicit", "vectors": [[0, 0, 0]]}), "directions"),
    ("bad tolerance", dict(BASE, tolerances={"trace_tail": -1.0}), "tolerances"),
    ("unknown key", dict(BASE, extra_knob=3), "extra_knob"),
    ("missing transmission medium", dict(BASE, problem="transmission"), "medium"),
    ("grid count not a number", dict(BASE, tau_grid={
        "start": 6.0, "stop": 12.0, "count": "four"}), "tau_grid"),
    ("grid start not a number", dict(BASE, t_grid={
        "start": "low", "stop": 0.7, "count": 2}), "t_grid"),
    ("grid count overflows", dict(BASE, tau_grid={
        "start": 6.0, "stop": 12.0, "count": 1e400}), "tau_grid"),
    ("geometry is a list", dict(BASE, geometry=[0.5, 1.0]), "geometry"),
    ("translation not numbers", dict(BASE, translation=["a", "b", "c"]),
     "translation"),
    ("ragged direction vectors", dict(BASE, directions={
        "kind": "explicit", "vectors": [[0, 0, 1], [1, 0]]}), "directions"),
    ("bool wave number", dict(BASE, wave_number=True), "wave_number"),
    ("bool truncation degree", dict(BASE, truncation_degree=True),
     "truncation_degree"),
    ("nan wave number", dict(BASE, wave_number=float("nan")), "wave_number"),
    ("nan tau", dict(BASE, tau_grid=[6.0, float("nan")]), "tau_grid"),
    ("infinite domain radius", dict(BASE, geometry={
        "r_obstacle": 0.5, "r_domain": float("inf")}), "geometry"),
    ("tau squared overflows", dict(BASE, tau_grid=[1.0, 1e200],
                                   truncation_degree=None),
     "config error: tau_grid: "),
    ("infinite auto degree", dict(BASE, tau_grid={
        "start": 1, "stop": 1e308, "count": 3}, truncation_degree=None),
     "config error: tau_grid: "),
    ("descending grid dict", dict(BASE, tau_grid={
        "start": 30, "stop": 10, "count": 9}), "tau_grid: values must be sorted"),
    ("grid dict span overflows", dict(BASE, t_grid={
        "start": -1.7e308, "stop": 1.7e308, "count": 3}), "t_grid: stop - start"),
    ("repeated tau", dict(BASE, tau_grid=[6.0, 6.0, 8.0]), "tau_grid: values must be distinct"),
    ("domain radius past 1e30", dict(BASE, geometry={
        "r_obstacle": 0.5, "r_domain": 1e31}), "geometry.r_domain: must lie in"),
    ("direction length overflows", dict(BASE, directions={
        "kind": "explicit", "vectors": [[1e300, 1e300, 0]]}), "directions.vectors: a vector"),
    ("translation past the shift cap", dict(BASE, translation=[0.0, 2e6, 0.0]),
     "translation: components must lie within"),
]


@pytest.mark.parametrize("label,doc,needle",
                         INVALID_CONFIGS, ids=[c[0] for c in INVALID_CONFIGS])
def test_invalid_configs_exit_2(tmp_path, capsys, label, doc, needle):
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert needle in err


CAPPED_CONFIGS = [
    ("tau count 1e9", dict(BASE, tau_grid={"start": 6.0, "stop": 12.0,
                                           "count": 10**9}), "rows exceed the cap"),
    ("fibonacci count 1e9", dict(BASE, directions={"kind": "fibonacci",
                                                   "count": 10**9}), "rows exceed the cap"),
    ("rows of three axes", dict(BASE, directions={"kind": "fibonacci", "count": 2000},
                                tau_grid={"start": 6.0, "stop": 12.0, "count": 1000},
                                t_grid={"start": 0.1, "stop": 0.9, "count": 1000}),
     "2000 x 1000 x 1000 = 2000000000 rows exceed the cap"),
    ("degree 1e9", dict(BASE, truncation_degree=10**9),
     "truncation_degree: 1000000000 exceeds the cap"),
    ("auto degree 1e9", dict(BASE, tau_grid={"start": 6.0, "stop": 1e9, "count": 5},
                             truncation_degree=None), "automatic truncation degree"),
]


@pytest.mark.parametrize("label,doc,needle", CAPPED_CONFIGS,
                         ids=[c[0] for c in CAPPED_CONFIGS])
def test_size_caps_exit_2_before_allocating(tmp_path, capsys, label, doc, needle):
    """A size far past a cap ends in exit 2 with one line that estimates
    the memory the run would need, before any grid is built."""
    path = write_config(tmp_path, doc)
    tracemalloc.start()
    try:
        rc = main(["validate", "--config", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert needle in err and " GB)" in err and len(err.strip().splitlines()) == 1
    assert peak < 1 << 20


def test_size_caps_admit_the_largest_configs(tmp_path, capsys):
    """The benchmark's largest run (48 directions x 7 taus x 2 ts at
    L = 96) validates, the row cap itself is inclusive, and a scale of
    k R = 2700, near the largest legal one, sweeps."""
    fine = dict(BASE, directions={"kind": "fibonacci", "count": 48},
                tau_grid={"start": 12.5, "stop": 50.0, "count": 7}, truncation_degree=96)
    assert main(["validate", "--config", write_config(tmp_path, fine)]) == 0
    n_tau = MAX_ROWS // (500 * 2)
    at_cap = dict(BASE, directions={"kind": "fibonacci", "count": 500},
                  tau_grid={"start": 6.0, "stop": 12.0, "count": n_tau})
    assert 500 * n_tau * 2 == MAX_ROWS
    assert main(["validate", "--config", write_config(tmp_path, at_cap)]) == 0
    at_cap["directions"] = {"kind": "fibonacci", "count": 501}
    assert main(["validate", "--config", write_config(tmp_path, at_cap)]) == 2
    largest = write_config(tmp_path, dict(BASE, wave_number=2700.0))
    assert main(["sweep", "--config", largest, "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    res = _python("-m", "enclosure", "validate", "--config", SHIPPED[0])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["n_directions"] == 26


def test_validate_missing_file(capsys):
    rc = main(["validate", "--config", "/nonexistent/config.json"])
    assert rc == 2


def test_validate_directory_path_exit_2(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot be read" in err and "Traceback" not in err


def test_validate_non_utf8_config_exit_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_bytes(json.dumps(BASE).encode("utf-16"))
    rc = main(["validate", "--config", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and len(err.strip().splitlines()) == 1


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ENCLOSURE_GEOMETRY__R_OBSTACLE", "0.25")
    monkeypatch.setenv("ENCLOSURE_WAVE_NUMBER", "1.5")
    cfg = load_config(write_config(tmp_path, BASE))
    assert cfg.geometry.r_obstacle == 0.25
    assert cfg.wave_number == 1.5


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_shape_and_determinism(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfgp, "--out", str(out2)]) == 0
    text1 = (out1 / "sweep.csv").read_text()
    text2 = (out2 / "sweep.csv").read_text()
    assert text1 == text2                      # byte-identical
    lines = text1.splitlines()
    header = lines[0].split(",")
    assert len(header) == 11
    assert header == ["rho_x", "rho_y", "rho_z", "tau", "t", "re_mantissa",
                      "im_mantissa", "ln_exponent", "log_abs_I", "tail",
                      "trusted"]
    n_dirs, n_t, n_tau = 6, 2, 4
    assert len(lines) - 1 == n_dirs * n_t * n_tau
    # rows sorted by (direction, t, tau)
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "1"]
    assert float(first[3]) == 6.0 and float(first[4]) == 0.3


def test_one_trace_per_tau_and_no_probe(tmp_path, monkeypatch):
    """The concentric indicator depends on (tau, t) alone: `sweep` and
    `reconstruct` compute the trace energies once per tau, shared by every
    direction and t, and build no CGO probe."""
    calls = []
    trace_energies = indicator.trace_energies

    def counting(*args, **kwargs):
        calls.append(1)
        return trace_energies(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("build_probe called")

    monkeypatch.setattr(indicator, "trace_energies", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("enclosure") and hasattr(module, "build_probe"):
            monkeypatch.setattr(module, "build_probe", refuse)
    for command, doc, n_tau in (("sweep", BASE, 4), ("reconstruct", RECON, 8)):
        calls.clear()
        cfgp = write_config(tmp_path, doc, name=f"{command}.json")
        assert main([command, "--config", cfgp, "--out", str(tmp_path / command)]) == 0
        # 6 directions and 2 t share each tau's trace
        assert len(calls) == n_tau


def test_sweep_builds_no_transform(tmp_path, monkeypatch):
    """The CLI path takes the closed-form trace energies: no VSH transform
    is built and no trace is analyzed."""
    def refuse(*args, **kwargs):
        raise AssertionError("transform path called")

    for name, module in list(sys.modules.items()):
        if name.startswith("enclosure") and hasattr(module, "get_transform"):
            monkeypatch.setattr(module, "get_transform", refuse)
    monkeypatch.setattr(indicator, "cgo_trace", refuse)
    monkeypatch.setattr(vsh.VshTransform, "__init__", refuse)
    cfgp = write_config(tmp_path, BASE)
    assert main(["sweep", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0


def test_sweep_output_is_a_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "sweep.csv").mkdir(parents=True)
    cfgp = write_config(tmp_path, BASE)
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]


def test_out_is_an_existing_file_exit_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("x")
    cfgp = write_config(tmp_path, BASE)
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert out.read_text() == "x"


def test_cli_import_loads_no_hull_backend():
    """Importing the CLI loads no scipy module and none of the oracle
    modules behind `selftest`."""
    code = ("import sys, enclosure.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('enclosure.selftest', 'enclosure.layerpot')))")
    res = _python("-c", code, check=True)
    assert res.stdout.strip() == "[]"


def test_reconstruct_loads_no_scipy(tmp_path):
    """A whole `reconstruct`, hull included, runs without any scipy module."""
    argv = ["reconstruct", "--config", write_config(tmp_path, RECON),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from enclosure.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = _python("-c", code, check=True)
    assert res.stdout.strip().splitlines()[-1] == "0 []"


def test_sweep_empty_problem_emits_inf_sentinel(tmp_path):
    doc = dict(BASE, problem="empty")
    doc["geometry"] = {"r_domain": 1.0}
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    for line in lines:
        cols = line.split(",")
        assert cols[8] == "-inf"
        assert cols[5] == "0" and cols[6] == "0"


def test_sweep_underflowed_trace_is_not_trusted(tmp_path):
    """At L = 4 and taus 400 and 500 every e^{-2 tau R}-scaled trace energy
    is 0.0, so the tail reads 0 and ln|I| is -inf: no row is trusted."""
    doc = dict(BASE, tau_grid=[400.0, 500.0], t_grid=[0.0], truncation_degree=4)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    assert all(row[8:] == ["-inf", "0", "0"] for row in rows)


def test_sweep_17_digit_roundtrip(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    main(["sweep", "--config", cfgp, "--out", str(out)])
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    cols = lines[0].split(",")
    # serialized floats reparse to exactly the same double
    v = float(cols[8])
    assert f"{v:.17g}" == cols[8]


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_outputs(tmp_path, capsys):
    cfgp = write_config(tmp_path, RECON)
    out = tmp_path / "out"
    rc = main(["reconstruct", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "sup support error" in report
    sup_err = float([ln for ln in report.splitlines()
                     if ln.startswith("sup support error")][0].split(":")[1])
    assert sup_err <= 0.05

    est_lines = (out / "estimates.csv").read_text().splitlines()
    assert est_lines[0] == "rho_x,rho_y,rho_z,h_hat,ci_lo,ci_hi,residual"
    assert len(est_lines) - 1 == 6

    off = (out / "hull.off").read_text().splitlines()
    assert off[0] == "OFF"
    nv, nf, ne = map(int, off[1].split())
    assert nv >= 4 and nf >= 4
    verts = np.array([[float(x) for x in ln.split()] for ln in off[2:2 + nv]])
    assert verts.shape == (nv, 3)
    for ln in off[2 + nv:2 + nv + nf]:
        parts = ln.split()
        assert parts[0] == "3"
        assert all(0 <= int(i) < nv for i in parts[1:])


def test_reconstruct_translated_centroid(tmp_path):
    doc = dict(RECON)
    doc["translation"] = [0.2, 0.0, 0.0]
    doc["directions"] = {"kind": "axes26"}
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["reconstruct", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    centroid = [float(x) for x in
                [ln for ln in report.splitlines()
                 if ln.startswith("hull centroid")][0].split(":")[1].split()]
    assert abs(centroid[0] - 0.2) < 0.05
    assert abs(centroid[1]) < 0.05 and abs(centroid[2]) < 0.05
    sup_err = float([ln for ln in report.splitlines()
                     if ln.startswith("sup support error")][0].split(":")[1])
    assert sup_err <= 0.06


def test_reconstruct_determinism(tmp_path):
    cfgp = write_config(tmp_path, RECON)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reconstruct", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", cfgp, "--out", str(out2)]) == 0
    for name in ("estimates.csv", "hull.off", "report.txt"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_sweep_eigenvalue_guard_exit_3(tmp_path, capsys):
    # k at the first TE l=1 interior Maxwell eigenvalue of the unit ball
    doc = dict(BASE, wave_number=4.493409457909064)
    cfgp = write_config(tmp_path, doc)
    rc = main(["sweep", "--config", cfgp, "--out", str(tmp_path / "eig")])
    assert rc == 3
    assert "solver guard" in capsys.readouterr().err
    assert not (tmp_path / "eig" / "sweep.csv").exists()


OVERFLOW_CONFIGS = [
    ("transmission L=82", dict(BASE, problem="transmission",
                               medium={"mu_contrast": 0.5},
                               truncation_degree=82)),
    ("pec L=136", dict(BASE, truncation_degree=136)),
]


@pytest.mark.parametrize("label,doc", OVERFLOW_CONFIGS,
                         ids=[c[0] for c in OVERFLOW_CONFIGS])
def test_sweep_radial_overflow_exit_3(tmp_path, capsys, label, doc):
    # the radial functions leave the double range below the truncation degree
    rc = main(["sweep", "--config", write_config(tmp_path, doc),
               "--out", str(tmp_path / "ovf")])
    assert rc == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "ovf" / "sweep.csv").exists()


# a wave number or obstacle so small that the radial functions leave the
# double range at degree 1, or y_l meets its pole at z = 0, or, under a tiny
# eigen_guard, the trace weights meet theirs: k^4 underflows at k = 1e-100,
# and at k = 1e-76 the weights leave the double range by tau = 10
_NO_GUARD = {"eigen_guard": 1e-300}
TINY_CONFIGS = [
    ("k=1e-300", dict(BASE, wave_number=1e-300)),
    ("k=1e-200", dict(BASE, wave_number=1e-200)),
    ("r_obstacle=1e-200", dict(BASE, geometry={"r_obstacle": 1e-200, "r_domain": 1.0})),
    ("empty k=1e-100", dict(BASE, problem="empty", geometry={"r_domain": 1.0},
                            wave_number=1e-100, truncation_degree=2,
                            tolerances=_NO_GUARD)),
    ("pec k=1e-76", dict(BASE, wave_number=1e-76, truncation_degree=2,
                         tolerances=_NO_GUARD)),
]


@pytest.mark.parametrize("label,doc", OVERFLOW_CONFIGS + TINY_CONFIGS,
                         ids=[c[0] for c in OVERFLOW_CONFIGS + TINY_CONFIGS])
def test_radial_overflow_stderr_is_one_line(tmp_path, label, doc):
    """In a fresh interpreter with the default warning filters, the exit-3
    run writes its guard line and no floating-point warning before it."""
    res = _python("-m", "enclosure.cli", "sweep", "--config", write_config(tmp_path, doc),
                  "--out", str(tmp_path / "ovf"))
    assert res.returncode == 3
    assert res.stderr.startswith("solver guard: ") and res.stderr.count("\n") == 1


def test_reconstruct_guard_exit_3(tmp_path):
    # tau grid too narrow for a trustworthy fit -> solver-guard exit
    doc = dict(RECON)
    doc["tau_grid"] = [15.0, 16.0, 17.0, 18.0, 19.0, 20.0]
    cfgp = write_config(tmp_path, doc)
    rc = main(["reconstruct", "--config", cfgp, "--out", str(tmp_path / "g")])
    assert rc == 3


def test_no_partial_output_on_guard(tmp_path):
    doc = dict(RECON)
    doc["tau_grid"] = [15.0, 16.0, 17.0, 18.0, 19.0, 20.0]
    out = tmp_path / "g2"
    main(["reconstruct", "--config", write_config(tmp_path, doc),
          "--out", str(out)])
    assert not (out / "estimates.csv").exists()
    assert not (out / "hull.off").exists()


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_mutation_trips(capsys):
    assert main(["selftest", "--inject", "mk-sign-flip"]) == 1
    out = capsys.readouterr().out
    assert "FAIL jump-relation" in out


# ---------------------------------------------------------------------------
# process exit: each check runs in a fresh interpreter

# records what stays registered with atexit, and registers a checker that
# runs after every handler registered later (atexit is last in, first out)
_AT_EXIT = """
import atexit, gc, sys
registered = []
register, unregister = atexit.register, atexit.unregister
def recording(fn, *args, **kwargs):
    registered.append(fn)
    return register(fn, *args, **kwargs)
def unrecording(fn):
    registered[:] = [f for f in registered if f != fn]
    unregister(fn)
atexit.register, atexit.unregister = recording, unrecording
atexit.register(lambda: print("freeze count", gc.get_freeze_count() > 0,
                              "registered", registered.count(gc.freeze)))
import enclosure.cli as cli
for argv in sys.argv[1:]:
    cli.main(argv.split())
"""


def test_import_alone_registers_no_freeze():
    res = _python("-c", _AT_EXIT)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "freeze count False registered 0\n"


def test_main_registers_the_freeze_once_and_it_runs_last():
    validate = "validate --config " + SHIPPED[0]
    res = _python("-c", _AT_EXIT, validate, validate)
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith("}\nfreeze count True registered 1\n")


def test_piped_stdout_carries_the_whole_report(tmp_path):
    res = _python("-m", "enclosure", "reconstruct", "--config", SHIPPED[0],
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (tmp_path / "report.txt").read_text(encoding="utf-8")


ONE_SIDED = dict(RECON, directions={"kind": "explicit", "vectors": [
    [0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]})


@pytest.mark.parametrize("doc,rc,stderr", [
    (RECON, 0, ""), (dict(BASE, wave_number=-2.0), 2, "config error: "),
    (ONE_SIDED, 4, "hull failure: ")], ids=["ok", "config", "hull"])
def test_exit_codes_of_a_fresh_process(tmp_path, doc, rc, stderr):
    res = _python("-m", "enclosure", "reconstruct", "--config",
                  write_config(tmp_path, doc), "--out", str(tmp_path / "out"))
    assert res.returncode == rc, res.stderr
    assert res.stderr.startswith(stderr) and (rc == 0) == (res.stderr == "")


# exit 2 at load; exit 3 from the eigenvalue guard inside the sweep
RUNS = [pytest.param(command, path, 0, id=f"{command}-{os.path.basename(path)}")
        for command in ("validate", "sweep", "reconstruct") for path in SHIPPED]
RUNS += [pytest.param("validate", dict(BASE, wave_number=-2.0), 2, id="config-error"),
         pytest.param("sweep", dict(BASE, wave_number=4.493409457909064), 3,
                      id="solver-guard")]


@pytest.mark.parametrize("command,config,rc", RUNS)
def test_run_path_relies_on_no_finalizer(tmp_path, command, config, rc):
    """Objects alive at exit are never finalized once the collector is
    frozen, so every file the run path opens is closed explicitly: in
    development mode an unclosed file warns when it is dropped."""
    if isinstance(config, dict):
        config = write_config(tmp_path, config)
    argv = [command, "--config", config]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    res = _python("-X", "dev", "-W", "error::ResourceWarning", "-m", "enclosure", *argv)
    assert res.returncode == rc, res.stderr
    assert "ResourceWarning" not in res.stderr


# ---------------------------------------------------------------------------
# exit-code contract: every input ends in 0, 2, 3 or 4, each error as one
# prefixed stderr line, in bounded time


_STDERR_PREFIXES = ("config error: ", "solver guard: ", "hull failure: ",
                    "output error: ")


class _Hang(Exception):
    """A command ran past its alarm."""


def _on_alarm(signum, frame):
    raise _Hang("command still running after its alarm")


def _run_main(argv, seconds):
    """(exit code, stderr lines, warning messages) of an in-process
    `main(argv)` that must end within `seconds`; stdout is dropped."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    err, rc = io.StringIO(), None
    try:
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
    except _Hang:
        pass                   # the interrupted frames are not worth a traceback
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if rc is None:
        pytest.fail(f"{argv[0]} still running after {seconds} s", pytrace=False)
    return rc, err.getvalue().splitlines(), [str(w.message) for w in caught]


# one key of a shipped config set past the largest legal scale: before the
# cap the Bessel recurrences ran past 10 s at k = 1e7, and for ever at 1e300
SCALES = [
    ("pec_ball", "WAVE_NUMBER", "1e7", "wave_number: "),
    ("pec_ball", "WAVE_NUMBER", "1e300", "wave_number: "),
    ("pec_ball", "WAVE_NUMBER", "1e308", "wave_number: "),
    ("pec_ball", "GEOMETRY__R_DOMAIN", "1e300", "geometry.r_domain: "),
    ("pec_ball", "GEOMETRY__R_DOMAIN", "3000", "geometry.r_domain: "),
    ("transmission_ball", "MEDIUM__MU_CONTRAST", "-1e300", "medium.mu_contrast: "),
]


@pytest.mark.parametrize("config,key,value,needle", SCALES,
                         ids=[f"{c[1].lower()}={c[2]}" for c in SCALES])
def test_scale_past_the_cap_exits_2_within_a_second(tmp_path, monkeypatch,
                                                    config, key, value, needle):
    monkeypatch.setenv(f"ENCLOSURE_{key}", value)
    path = os.path.join(ROOT, "configs", f"{config}.json")
    start = time.perf_counter()
    rc, lines, caught = _run_main(["sweep", "--config", path, "--out", str(tmp_path)], 10.0)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and len(lines) == 1 and caught == []
    assert lines[0].startswith("config error: " + needle)
    assert not (tmp_path / "sweep.csv").exists()


# positive floats from 1e-300 to 1e300, log-uniform, and the desk range
_POSITIVE = st.one_of(
    st.floats(0.1, 40.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.9), st.integers(-300, 300)))
_SIGNED = st.one_of(_POSITIVE, _POSITIVE.map(lambda x: -x))


def _grid(values, max_count):
    """A list grid of sorted values or a start/stop/count dict of any two."""
    return st.one_of(
        st.lists(values, min_size=1, max_size=max_count).map(sorted),
        st.fixed_dictionaries({"start": values, "stop": values,
                               "count": st.integers(1, max_count)}))


def _geometry(r_domain, r_obstacle):
    return {"r_obstacle": r_obstacle, "r_domain": r_domain}


# a component of a vector: any magnitude, zero or NaN
_COMPONENT = st.one_of(_SIGNED, st.just(0.0), st.just(math.nan))
_DIRECTIONS = st.one_of(
    st.just({"kind": "axes26"}),
    # Fibonacci counts too small, desk-sized, or past the row cap on their own
    st.builds(lambda n: {"kind": "fibonacci", "count": n},
              st.one_of(st.integers(0, 64), st.integers(MAX_ROWS + 1, 10**12))),
    # explicit vectors: from one to eight of them at desk size, or any
    # number with zero, NaN, 1e300 and wrong shapes among them
    st.builds(lambda v: {"kind": "explicit", "vectors": v}, st.one_of(
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                 min_size=1, max_size=8),
        st.lists(st.one_of(st.lists(_COMPONENT, min_size=3, max_size=3),
                           st.just([0.0, 0.0, 0.0]),
                           st.lists(_COMPONENT, max_size=5),
                           _COMPONENT),
                 max_size=8))))
_TRANSLATION = st.one_of(
    st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3),
    st.lists(st.one_of(_SIGNED, st.just(1e300), st.just(-1e300), st.just(math.nan)),
             max_size=5))


# each key near the shipped configs, where most runs end in 0 or 3 ...
_DESK = {
    "wave_number": st.floats(0.5, 2.0),
    "geometry": st.builds(_geometry, st.just(1.0), st.floats(0.2, 0.8)),
    "mu_contrast": st.one_of(st.floats(-2.0, -0.01), st.floats(0.01, 0.9)),
    "tau_grid": st.fixed_dictionaries({"start": st.floats(5.0, 7.0),
                                       "stop": st.floats(14.0, 16.0),
                                       "count": st.integers(5, 7)}),
    "t_grid": st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=2).map(sorted),
    "truncation_degree": st.integers(30, 40),
    "tolerances": st.fixed_dictionaries({"trace_tail": st.floats(1e-9, 1e-7),
                                         "eigen_guard": st.floats(1e-11, 1e-9)}),
    "directions": st.just(BASE["directions"]),
    "translation": st.just([0.0, 0.0, 0.0]),
}
# ... or anywhere from 1e-300 to 1e300
_WILD = {
    "wave_number": _POSITIVE,
    "geometry": st.one_of(
        st.builds(lambda r, f: _geometry(r, f * r), _POSITIVE, st.floats(0.05, 0.95)),
        st.builds(_geometry, _POSITIVE, _POSITIVE)),
    "mu_contrast": _SIGNED,
    "tau_grid": _grid(_POSITIVE, 4),
    "t_grid": _grid(_SIGNED, 2),
    "truncation_degree": st.integers(1, 40),
    "tolerances": st.fixed_dictionaries({"trace_tail": _POSITIVE,
                                         "eigen_guard": _POSITIVE}),
    "directions": _DIRECTIONS,
    "translation": _TRANSLATION,
}


@st.composite
def _fuzzed_config(draw):
    """BASE with any set of keys taken wild."""
    wild = draw(st.sets(st.sampled_from(sorted(_WILD))))
    doc = dict(BASE, problem=draw(st.sampled_from(["pec", "transmission", "empty"])))
    for key in sorted(_DESK):
        doc[key] = draw(_WILD[key] if key in wild else _DESK[key])
    mu_contrast = doc.pop("mu_contrast")
    if doc["problem"] == "transmission":
        doc["medium"] = {"mu_contrast": mu_contrast}
    return doc


# no shrink phase: a hang would cost its alarm on every shrinking attempt
@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(command=st.sampled_from(["sweep", "reconstruct"]), doc=_fuzzed_config())
def test_exit_code_contract(tmp_path_factory, command, doc):
    """Wave number, radii, mu contrast, grids, degree and tolerances from
    1e-300 to 1e300, directions from none to past the row cap, and
    translations up to 1e300 or NaN, at L <= 40: each run exits 0, 2, 3 or 4
    within 1 s, writes only prefixed lines to stderr and raises no
    floating-point warning."""
    out = tmp_path_factory.mktemp("contract")
    config = write_config(out, doc)
    rc, lines, caught = _run_main([command, "--config", config, "--out", str(out)], 1.0)
    assert rc in (0, 2, 3, 4), lines
    assert all(line.startswith(_STDERR_PREFIXES) for line in lines), lines
    assert caught == [], caught
