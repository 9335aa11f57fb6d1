import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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
    L = 96) validates, and the row cap itself is inclusive."""
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
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(indicator.__file__))
    root = os.path.dirname(src)
    res = subprocess.run([sys.executable, "-m", "enclosure", "validate", "--config",
                          os.path.join(root, "configs", "pec_ball.json")],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
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
    src = os.path.dirname(os.path.dirname(indicator.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert res.stdout.strip() == "[]"


def test_reconstruct_loads_no_scipy(tmp_path):
    """A whole `reconstruct`, hull included, runs without any scipy module."""
    argv = ["reconstruct", "--config", write_config(tmp_path, RECON),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from enclosure.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(indicator.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
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


@pytest.mark.parametrize("label,doc", OVERFLOW_CONFIGS,
                         ids=[c[0] for c in OVERFLOW_CONFIGS])
def test_radial_overflow_stderr_is_one_line(tmp_path, label, doc):
    """In a fresh interpreter with the default warning filters, the exit-3
    run writes its guard line and no floating-point warning before it."""
    src = os.path.dirname(os.path.dirname(indicator.__file__))
    res = subprocess.run([sys.executable, "-m", "enclosure.cli", "sweep",
                          "--config", write_config(tmp_path, doc),
                          "--out", str(tmp_path / "ovf")],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
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
