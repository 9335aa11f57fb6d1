"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure and runtime.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np

from enclosure.cgo import (CgoMode, build_probe, cgo_identity_defect,
                           cgo_volume_norms, eval_cgo_batch)
from enclosure.cli import main
from enclosure.forward import Geometry, Medium, solution_pec, solution_transmission
from enclosure.indicator import (IndicatorEngine, indicator_value, volume_indicator_pec,
                                 volume_indicator_transmission)
from enclosure.layerpot import (SurfaceDensity, mk_symbols, nu_wedge_h_limit)
from enclosure.mathkit import VshCoeffs
from enclosure.recon import (directions_axes26, estimate_support,
                             reconstruct_hull, synth_translated)
from enclosure.selftest import pec_entries_via_layerpot

K = 1.0
GEOM = Geometry(0.5, 1.0)
BALL_VOLUME = 4.0 * math.pi / 3.0 * 0.5**3
DIRS26 = directions_axes26()
TAUS = np.linspace(15.0, 30.0, 6)


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status}  ({time.time() - t0:.1f}s)  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _fd_maxwell_residual(probe, rng, n_pts=3):
    h = 1e-6
    steps = h * np.eye(3)
    worst = 0.0
    for _ in range(n_pts):
        x = rng.standard_normal(3) * 0.3
        x -= probe.frame.rho * (x @ probe.frame.rho)   # scale-1 points
        ep, _ = eval_cgo_batch(probe, x + steps, 0.0)
        em, _ = eval_cgo_batch(probe, x - steps, 0.0)
        jac = (ep - em) / (2 * h)                      # jac[j, i] = d E_i / d x_j
        curl = np.array([jac[1, 2] - jac[2, 1],
                         jac[2, 0] - jac[0, 2],
                         jac[0, 1] - jac[1, 0]])
        ref = 1j * probe.k * eval_cgo_batch(probe, x[None], 0.0)[1][0]
        worst = max(worst, float(np.max(np.abs(curl - ref)) / np.max(np.abs(ref))))
    return worst


def test_criterion_1_cgo_algebra():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_alg = 0.0
    for i in range(1000):
        k = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(1.0, 50.0))
        mode = CgoMode.IMPENETRABLE if i % 2 == 0 else CgoMode.PENETRABLE
        p = build_probe(k, tau, 0.0, rng.standard_normal(3), mode)
        worst_alg = max(worst_alg, cgo_identity_defect(p))
    worst_fd = 0.0
    for i in range(12):
        k = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(1.0, 20.0))
        mode = CgoMode.IMPENETRABLE if i % 2 == 0 else CgoMode.PENETRABLE
        p = build_probe(k, tau, 0.0, rng.standard_normal(3), mode)
        worst_fd = max(worst_fd, _fd_maxwell_residual(p, rng))
    elapsed_ok = time.time() - t0 < 10.0
    ok = worst_alg < 1e-12 and worst_fd < 1e-6 and elapsed_ok
    _report(1, "cgo-algebra", ok,
            f"identity defect {worst_alg:.2e} (tol 1e-12), "
            f"FD Maxwell {worst_fd:.2e} (tol 1e-6)", t0)


def test_criterion_2_scaling_identity():
    t0 = time.time()
    L = 40
    sol = solution_pec(K, GEOM, L)
    worst = 0.0
    for tau in np.linspace(6.0, 14.0, 5):
        probes = [build_probe(K, float(tau), float(t), [0.0, 0.0, 1.0],
                              CgoMode.IMPENETRABLE)
                  for t in np.linspace(0.0, 1.0, 5)]
        base = indicator_value(sol.operator, probes[0])
        for p in probes[1:]:
            val = indicator_value(sol.operator, p)
            shifted = base.scale_exp(2.0 * tau * (probes[0].t - p.t))
            worst = max(worst, (val - shifted).abs() / val.abs())
    ok = worst < 1e-12
    _report(2, "scaling-identity", ok,
            f"max rel defect {worst:.2e} over the 5x5 grid (tol 1e-12)", t0)


def test_criterion_3_forward_vs_layerpot():
    t0 = time.time()
    L = 12
    composite = pec_entries_via_layerpot(K, GEOM, L, l_max=5)
    direct = solution_pec(K, GEOM, L).operator.lam
    rel = float(np.max(np.abs(composite[:, 1:6] - direct[:, 1:6])
                       / np.abs(direct[:, 1:6])))

    rng = np.random.default_rng(103)
    c = VshCoeffs.zeros(8)
    for l in range(1, 9):
        for m in range(-l, l + 1):
            c.data[:, l, m + 8] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = SurfaceDensity(GEOM.r_obstacle, c)
    ext = nu_wedge_h_limit(K, f, "exterior")
    m_u, m_v = mk_symbols(K, GEOM.r_obstacle, 8)
    want = c.copy()
    want.data[0] *= (-0.5 + m_u)[:, None]
    want.data[1] *= (-0.5 + m_v)[:, None]
    jump = float(np.max(np.abs(ext.data - want.data)) / np.max(np.abs(want.data)))

    ok = rel < 1e-6 and jump < 1e-5
    _report(3, "forward-vs-layerpot", ok,
            f"entry agreement {rel:.2e} (tol 1e-6), "
            f"jump extrapolation {jump:.2e} (tol 1e-5)", t0)


def test_criterion_4_energy_identities():
    t0 = time.time()
    L = 40
    tau = 10.0
    dirs = [np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
            np.array([1.0, 0.0, 0.0])]
    sol_p = solution_pec(K, GEOM, L)
    med = Medium(0.5)
    sol_t = solution_transmission(K, GEOM, med, L)
    worst = 0.0
    for rho in dirs:
        p = build_probe(K, tau, 0.0, rho, CgoMode.IMPENETRABLE)
        bdry = indicator_value(sol_p.operator, p).to_complex().real
        vol = volume_indicator_pec(p, GEOM, sol_p.operator, solution=sol_p)
        worst = max(worst, abs(bdry - vol) / abs(vol))
        pt = build_probe(K, tau, 0.0, rho, CgoMode.PENETRABLE)
        bdry_t = indicator_value(sol_t.operator, pt).to_complex().real
        vol_t = volume_indicator_transmission(pt, GEOM, med, sol_t.operator,
                                              solution=sol_t)
        worst = max(worst, abs(bdry_t - vol_t) / abs(vol_t))
    ok = worst < 1e-3
    _report(4, "energy-identities", ok,
            f"max boundary/volume rel diff {worst:.2e} over 3 directions x "
            f"(PEC + transmission) (tol 1e-3)", t0)


def _slope(taus, lns):
    return float(np.polyfit(taus, lns, 1)[0])


def _engine(medium):
    """PEC at L = 64 without a medium, the mu jump with one."""
    if medium is None:
        return IndicatorEngine(solution_pec(K, GEOM, 64).operator, CgoMode.IMPENETRABLE)
    return IndicatorEngine(solution_transmission(K, GEOM, medium, 64).operator,
                           CgoMode.PENETRABLE)


def _dichotomy_slopes(medium):
    eng = _engine(medium)
    worst_above = -math.inf     # must stay <= -0.1
    worst_below = math.inf      # must stay >= +0.1
    above, below = eng.sweep(DIRS26, TAUS, [0.7]), eng.sweep(DIRS26, TAUS, [0.3])
    assert np.all(above.trusted) and np.all(below.trusted)
    for ln_above, ln_below in zip(np.broadcast_to(above.ln_abs(), above.shape),
                                  np.broadcast_to(below.ln_abs(), below.shape)):
        worst_above = max(worst_above, _slope(TAUS, ln_above[0]))
        worst_below = min(worst_below, _slope(TAUS, ln_below[0]))
    return worst_above, worst_below


def test_criterion_5_dichotomy():
    t0 = time.time()
    results = {}
    results["pec"] = _dichotomy_slopes(None)
    results["mu=0.5"] = _dichotomy_slopes(Medium(0.5))
    results["mu=1.5"] = _dichotomy_slopes(Medium(-0.5))
    ok = all(above <= -0.1 and below >= 0.1
             for above, below in results.values())
    detail = "; ".join(f"{name}: slope(t=0.7) {a:.3f} <= -0.1, "
                       f"slope(t=0.3) {b:+.3f} >= +0.1"
                       for name, (a, b) in results.items())
    _report(5, "theorem-dichotomy", ok, detail, t0)


def _support_sweeps(medium):
    eng = _engine(medium)
    taus = np.linspace(15.0, 30.0, 8)
    return eng.sweep(DIRS26, taus, [0.0])


def test_criterion_6_support_recovery():
    t0 = time.time()
    sweeps_pec = _support_sweeps(None)
    sweeps_trans = _support_sweeps(Medium(0.5))

    est_pec = estimate_support(sweeps_pec)
    est_trans = estimate_support(sweeps_trans)
    err_pec = max(abs(e.h_hat - 0.5) for e in est_pec)
    err_trans = max(abs(e.h_hat - 0.5) for e in est_trans)

    c = np.array([0.2, 0.0, 0.0])
    est_shift = estimate_support(synth_translated(sweeps_pec, c))
    err_shift = max(abs(e.h_hat - (0.5 + 0.2 * e.rho[0])) for e in est_shift)

    mesh, _ = reconstruct_hull(est_pec)
    vol_err = abs(mesh.volume - BALL_VOLUME) / BALL_VOLUME

    ok = err_pec <= 0.05 and err_trans <= 0.05 and err_shift <= 0.06 \
        and vol_err <= 0.15
    _report(6, "support-recovery", ok,
            f"sup|h-0.5|: pec {err_pec:.4f}, transmission {err_trans:.4f} "
            f"(tol 0.05); translated {err_shift:.4f} (tol 0.06); "
            f"hull volume off by {100 * vol_err:.1f}% (tol 15%)", t0)


def test_criterion_7_asymptotic_ratios():
    t0 = time.time()
    ball = (np.zeros(3), GEOM.r_obstacle)
    taus = np.linspace(5.0, 40.0, 8)
    ratios, lower = [], []
    for tau in taus:
        p = build_probe(K, float(tau), GEOM.r_obstacle, [0.0, 0.0, 1.0],
                        CgoMode.IMPENETRABLE)
        _, nh, nc = cgo_volume_norms(p, ball, q=2.0)
        ratios.append(tau**2 * math.exp(2.0 * (nh.ln_abs() - nc.ln_abs())))
        lower.append(tau * math.exp(2.0 * nc.ln_abs()))
    r5 = ratios[0]
    ok_ratio = all(r5 / 2.0 <= r <= 2.0 * r5 for r in ratios)
    ok_lower = min(lower) > 1e-3 and lower[-1] >= lower[0]
    ok = ok_ratio and ok_lower
    _report(7, "asymptotic-ratios", ok,
            f"tau^2 ||H0||^2/||curl H0||^2 in [{min(ratios):.4f}, {max(ratios):.4f}] "
            f"vs r5={r5:.4f} band [{r5 / 2:.4f}, {2 * r5:.4f}]; "
            f"min tau ||curl H0||^2 = {min(lower):.3e}", t0)


def test_criterion_8_determinism_and_robustness(tmp_path, capsys):
    t0 = time.time()
    import json

    base = {
        "problem": "pec",
        "geometry": {"r_obstacle": 0.5, "r_domain": 1.0},
        "wave_number": 1.0,
        "tau_grid": [6.0, 8.0, 10.0],
        "t_grid": [0.4],
        "directions": {"kind": "explicit",
                       "vectors": [[0, 0, 1], [1, 0, 0], [0, 1, 0],
                                   [0, 0, -1], [-1, 0, 0], [0, -1, 0]]},
        "truncation_degree": 26,
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    identical = ((outs[0] / "sweep.csv").read_text()
                 == (outs[1] / "sweep.csv").read_text())

    invalid = [
        dict(base, geometry={"r_obstacle": 1.0, "r_domain": 0.5}),
        dict(base, geometry={"r_obstacle": 1.0, "r_domain": 1.0}),
        dict(base, problem="transmission", medium={"mu_contrast": 1.0}),
        dict(base, problem="transmission"),
        dict(base, wave_number=-1.0),
        dict(base, tau_grid=[]),
        dict(base, tau_grid=[-3.0, 1.0]),
        dict(base, t_grid=[0.9, 0.1]),
        dict(base, directions={"kind": "nonsense"}),
        dict(base, unknown_key=1),
    ]
    rejects = 0
    for i, doc in enumerate(invalid):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(doc))
        if main(["validate", "--config", str(p)]) == 2:
            rejects += 1

    mutation_rc = main(["selftest", "--inject", "mk-sign-flip"])
    capsys.readouterr()     # swallow suite chatter

    ok = identical and rejects == len(invalid) and mutation_rc == 1
    _report(8, "determinism-robustness", ok,
            f"byte-identical reruns: {identical}; invalid configs rejected "
            f"{rejects}/{len(invalid)}; mutation exit {mutation_rc} (want 1)", t0)
