import math

import mpmath
import numpy as np
import pytest

from enclosure.cgo import CgoMode, build_probe, eval_cgo_batch
from enclosure.conventions import POL_U, POL_V, TE, TM
from enclosure.errors import TruncationInsufficient
from enclosure.forward import (Geometry, Medium, solution_empty, solution_pec,
                               solution_transmission)
from enclosure.indicator import (IndicatorEngine, SweepConfig,
                                 _legendre_derivatives, auto_degree,
                                 cgo_trace, indicator_value, trace_energies,
                                 volume_indicator_pec,
                                 volume_indicator_transmission)
from enclosure.mathkit import ScaledComplex, get_transform, scaled

K = 1.0
GEOM = Geometry(0.5, 1.0)
RHO = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# trace


def test_trace_tail_converges():
    probe = build_probe(K, 5.0, 0.0, RHO, CgoMode.IMPENETRABLE)
    _, tail = cgo_trace(probe, 1.0, 30)
    assert tail < 1e-8


def test_trace_energy_stable_under_degree_doubling():
    probe = build_probe(K, 5.0, 0.0, RHO, CgoMode.IMPENETRABLE)
    c30, tail = cgo_trace(probe, 1.0, 30)
    c60, _ = cgo_trace(probe, 1.0, 60)
    assert tail < 1e-8
    e30, e60 = c30.total_energy(), c60.total_energy()
    assert abs(e30 - e60) < 1e-10 * e60


def test_trace_t_enters_only_the_scale():
    tau = 7.0
    p1 = build_probe(K, tau, 0.2, RHO, CgoMode.IMPENETRABLE)
    p2 = build_probe(K, tau, 0.9, RHO, CgoMode.IMPENETRABLE)
    c1, _ = cgo_trace(p1, 1.0, 24)
    c2, _ = cgo_trace(p2, 1.0, 24)
    assert np.array_equal(c1.data, c2.data)
    assert abs((c1.ln_scale - c2.ln_scale) - tau * (0.9 - 0.2)) < 1e-12


def test_trace_truncation_guard():
    probe = build_probe(K, 30.0, 0.0, RHO, CgoMode.IMPENETRABLE)
    with pytest.raises(TruncationInsufficient):
        cgo_trace(probe, 1.0, 30, tail_tol=1e-8)


@pytest.mark.parametrize("L", [24, 64, 96])
@pytest.mark.parametrize("mode", list(CgoMode))
@pytest.mark.parametrize("tau", [2.0, 10.0, 20.0])
def test_trace_energies_match_transform(L, mode, tau):
    """The closed form against the VSH analysis of the sampled trace.

    The analysis runs at max(L, 64): at L = 24 the trace is not band-limited
    from tau = 10 on, and its top degrees alias."""
    rng = np.random.default_rng(int(10 * tau) + L)
    probe = build_probe(K, tau, 0.4, rng.standard_normal(3), mode)
    closed = trace_energies(probe, 1.0, L)
    ref = cgo_trace(probe, 1.0, max(L, 64))[0].degree_energies()[:, :L + 1]
    carried = ref > 1e-12 * ref.sum()
    assert np.all(closed[:, 0] == 0.0)
    assert np.max(np.abs(closed - ref)[carried] / ref[carried]) < 1e-8


@pytest.mark.parametrize("s", [1.0, 1.5, 801.0, 5001.0])
def test_legendre_derivatives_against_mpmath(s):
    """P_l'(s) and P_l''(s) through the rescaled recurrences, up to
    P_96'(5001) ~ 1e384, against 50-digit values from the Legendre ODE."""
    d1, d2, ln_shift = _legendre_derivatives(s, 96)
    with mpmath.workdps(50):
        x = mpmath.mpf(s)
        for l in (1, 2, 10, 50, 96):
            if s == 1.0:   # closed forms at the endpoint
                p1 = mpmath.mpf(l * (l + 1)) / 2
                p2 = mpmath.mpf((l - 1) * l * (l + 1) * (l + 2)) / 8
            else:
                p, q = mpmath.legendre(l, x), mpmath.legendre(l - 1, x)
                p1 = l * (x * p - q) / (x * x - 1)
                p2 = (2 * x * p1 - l * (l + 1) * p) / (1 - x * x)
            assert abs(math.log(d1[l - 1]) + ln_shift[l - 1] - float(mpmath.log(p1))) < 1e-12
            if l >= 2:
                assert abs(math.log(d2[l - 1]) + ln_shift[l - 1]
                           - float(mpmath.log(p2))) < 1e-12


def test_auto_degree_rule():
    assert auto_degree(30.0, 1.0, 1.0) == math.ceil(1.5 * math.sqrt(901.0)) + 10


# ---------------------------------------------------------------------------
# indicator values


def test_empty_difference_gives_exact_zero():
    L = 24
    op_e = solution_empty(K, 1.0, L).operator
    probe = build_probe(K, 6.0, 0.3, RHO, CgoMode.IMPENETRABLE)
    val = indicator_value(op_e, op_e, probe)
    assert val.is_zero
    assert val.ln_abs() == -math.inf


def test_scaling_identity_exact():
    L = 40
    sol = solution_pec(K, GEOM, L)
    op_e = solution_empty(K, 1.0, L).operator
    for tau in (8.0, 14.0):
        p = build_probe(K, tau, 0.25, RHO, CgoMode.IMPENETRABLE)
        i1 = indicator_value(sol.operator, op_e, p)
        i2 = indicator_value(sol.operator, op_e, p.with_t(0.85))
        shifted = i1.scale_exp(2.0 * tau * (0.25 - 0.85))
        rel = (i2 - shifted).abs() / i2.abs()
        assert rel < 1e-12


def test_pec_energy_identity():
    """Boundary indicator vs Lemma-structure volume assembly, tau = 15."""
    L = 48
    sol = solution_pec(K, GEOM, L)
    op_e = solution_empty(K, 1.0, L).operator
    probe = build_probe(K, 15.0, 0.0, RHO, CgoMode.IMPENETRABLE)
    bdry = indicator_value(sol.operator, op_e, probe).to_complex()
    vol = volume_indicator_pec(probe, GEOM, sol.operator, solution=sol)
    assert abs(bdry.real - vol) < 1e-3 * abs(vol)
    assert abs(bdry.imag) < 1e-6 * abs(vol)


def test_pec_energy_inequality():
    """-I/tau >= int_D(|curl H0|^2 - k^2|H0|^2) - k^2 int |H~|^2 (eq. chain)."""
    L = 40
    sol = solution_pec(K, GEOM, L)
    op_e = solution_empty(K, 1.0, L).operator
    probe = build_probe(K, 10.0, 0.2, RHO, CgoMode.IMPENETRABLE)
    lhs = -indicator_value(sol.operator, op_e, probe).to_complex().real / probe.tau

    tr = get_transform(L)
    trace, _ = cgo_trace(probe, 1.0, L, tr)
    peel = trace.ln_scale
    amp_te, amp_tm = sol.amplitudes(trace)
    rx, rw = np.polynomial.legendre.leggauss(48)
    lo, hi = GEOM.r_obstacle, GEOM.r_domain
    rr, rws = 0.5 * (hi - lo) * rx + 0.5 * (hi + lo), 0.5 * (hi - lo) * rw
    h_sq = 0.0
    curl_sq = 0.0
    for r, wr in zip(rr, rws):
        _, h_sol = sol.fields_on_shell(amp_te, amp_tm, r, tr)
        e_sol, _ = sol.fields_on_shell(amp_te, amp_tm, r, tr)
        pts = r * tr.grid.nodes
        e0m, h0m = eval_cgo_batch(probe, pts, peel)
        dh = h_sol - h0m
        h_sq += wr * r * r * float(np.sum(tr.grid.weights
                                          * np.einsum("ni,ni->n", dh, dh.conj()).real))
    h_sq *= math.exp(2.0 * peel)

    from enclosure.cgo import cgo_volume_norms
    ne, nh, nc = cgo_volume_norms(probe, (np.zeros(3), GEOM.r_obstacle), q=2.0)
    d_term = math.exp(2.0 * nc.ln_abs()) - K**2 * math.exp(2.0 * nh.ln_abs())
    rhs = d_term - K**2 * h_sq
    assert lhs >= rhs - 1e-9 * abs(lhs)


def test_transmission_energy_identity_and_inequality():
    L = 48
    med = Medium(0.5)     # mu inside = 0.5, 1 - mu > 0
    sol = solution_transmission(K, GEOM, med, L)
    op_e = solution_empty(K, 1.0, L).operator
    probe = build_probe(K, 10.0, 0.0, RHO, CgoMode.PENETRABLE)
    bdry = indicator_value(sol.operator, op_e, probe).to_complex()
    vol = volume_indicator_transmission(probe, GEOM, med, sol.operator, solution=sol)
    assert abs(bdry.real - vol) < 1e-3 * abs(vol)

    # first inequality of the contrast lemma (used when 1 - mu > 0):
    # -I/tau >= int_D (1-mu)|curl E0|^2 - k^2 int_Omega |E~|^2
    tr = get_transform(L)
    trace, _ = cgo_trace(probe, 1.0, L, tr)
    peel = trace.ln_scale
    amp_te, amp_tm = sol.amplitudes(trace)

    def e_tilde_sq(lo, hi, n_r):
        rx, rw = np.polynomial.legendre.leggauss(n_r)
        rr, rws = 0.5 * (hi - lo) * rx + 0.5 * (hi + lo), 0.5 * (hi - lo) * rw
        acc = 0.0
        for r, wr in zip(rr, rws):
            e_sol, _ = sol.fields_on_shell(amp_te, amp_tm, r, tr)
            e0m, _ = eval_cgo_batch(probe, r * tr.grid.nodes, peel)
            de = e_sol - e0m
            acc += wr * r * r * float(np.sum(tr.grid.weights
                                             * np.einsum("ni,ni->n", de, de.conj()).real))
        return acc

    e_sq = (e_tilde_sq(1e-9, GEOM.r_obstacle, 24)
            + e_tilde_sq(GEOM.r_obstacle, GEOM.r_domain, 48)) * math.exp(2 * peel)
    theta2 = float(np.vdot(probe.theta, probe.theta).real)
    from enclosure.cgo import cgo_volume_norms
    _, nh, _ = cgo_volume_norms(probe, (np.zeros(3), GEOM.r_obstacle), q=2.0)
    curl_e0_sq = K**2 * math.exp(2.0 * nh.ln_abs())    # |curl E0| = k |H0|
    lhs = -bdry.real / probe.tau
    rhs = (1.0 - med.mu_inside) * curl_e0_sq - K**2 * e_sq
    assert lhs >= rhs - 1e-9 * abs(lhs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [10.0, 20.0])
def test_transmission_energy_identity_at_shipped_degree(tau):
    """Shipped transmission geometry and contrast at L = 64: the regular
    inner-ball fields stay finite down to the origin, so both sides agree."""
    L = 64
    med = Medium(0.5)
    sol = solution_transmission(K, GEOM, med, L)
    op_e = solution_empty(K, 1.0, L).operator
    probe = build_probe(K, tau, 0.0, RHO, CgoMode.PENETRABLE)
    bdry = indicator_value(sol.operator, op_e, probe).to_complex()
    vol = volume_indicator_transmission(probe, GEOM, med, sol.operator, solution=sol)
    assert abs(bdry.real - vol) < 1e-9 * abs(vol)


def test_volume_indicator_degenerate_obstacle():
    """No obstacle: both volume terms vanish to truncation level."""
    L = 32
    sol = solution_empty(K, 1.0, L)
    probe = build_probe(K, 8.0, 0.0, RHO, CgoMode.IMPENETRABLE)
    tiny = Geometry(1e-3, 1.0)
    vol = volume_indicator_pec(probe, tiny, sol.operator, solution=sol)
    # compare against the overall field scale tau * ||E0||^2
    from enclosure.cgo import cgo_volume_norms
    ne, _, _ = cgo_volume_norms(probe, (np.zeros(3), 1.0), q=2.0)
    scale = probe.tau * math.exp(2.0 * ne.ln_abs())
    assert abs(vol) < 1e-10 * scale


def test_transmission_zero_contrast_identity_trivial():
    L = 32
    med = Medium(0.0)
    sol = solution_transmission(K, GEOM, med, L)
    op_e = solution_empty(K, 1.0, L).operator
    probe = build_probe(K, 8.0, 0.0, RHO, CgoMode.PENETRABLE)
    val = indicator_value(sol.operator, op_e, probe)
    assert val.is_zero
    vol = volume_indicator_transmission(probe, GEOM, med, sol.operator, solution=sol)
    from enclosure.cgo import cgo_volume_norms
    ne, _, _ = cgo_volume_norms(probe, (np.zeros(3), 1.0), q=2.0)
    scale = probe.tau * math.exp(2.0 * ne.ln_abs())
    assert abs(vol) < 1e-10 * scale


def test_indicator_truncation_invariance():
    probe = build_probe(K, 20.0, 0.4, RHO, CgoMode.IMPENETRABLE)
    vals = []
    for L in (48, 56):
        sol = solution_pec(K, GEOM, L)
        op_e = solution_empty(K, 1.0, L).operator
        trace, tail = cgo_trace(probe, 1.0, L)
        assert tail < 1e-8
        vals.append(indicator_value(sol.operator, op_e, probe, trace=trace))
    rel = abs(math.exp(vals[0].ln_abs() - vals[1].ln_abs()) - 1.0)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# sweeps


def test_t_sweep_is_affine_in_t():
    cfg = SweepConfig(problem="pec", geometry=GEOM, k=K, L=40)
    eng = IndicatorEngine(cfg, tau_max=12.0)
    samples = eng.t_sweep(RHO, 12.0, [0.0, 0.25, 0.5, 0.75, 1.0])
    lns = np.array([s.ln_abs for s in samples])
    slopes = np.diff(lns) / 0.25
    assert np.max(np.abs(slopes + 2.0 * 12.0)) < 1e-9


def test_tau_sweep_dichotomy_signs():
    cfg = SweepConfig(problem="pec", geometry=GEOM, k=K, L=56)
    taus = [10.0, 14.0, 18.0, 22.0, 26.0]
    eng = IndicatorEngine(cfg, tau_max=max(taus))
    above = eng.tau_sweep(RHO, 0.7, taus)
    below = eng.tau_sweep(RHO, 0.3, taus)
    d_above = np.diff([s.ln_abs for s in above])
    d_below = np.diff([s.ln_abs for s in below])
    assert np.all(d_above < 0)          # decay above the support level
    assert np.all(d_below > 0)          # growth below it


def test_slope_sign_stability_near_support():
    cfg = SweepConfig(problem="pec", geometry=GEOM, k=K, L=56)
    taus = np.linspace(10.0, 30.0, 9)
    eng = IndicatorEngine(cfg, tau_max=float(max(taus)))
    for t, sign in ((0.6, -1.0), (0.4, +1.0)):
        sweep = eng.tau_sweep(RHO, t, list(taus))
        lns = np.array([s.ln_abs for s in sweep])
        slopes = np.diff(lns) / np.diff(taus)
        assert np.all(np.sign(slopes) == sign), (t, slopes)


def test_engine_trust_diagnostics():
    cfg = SweepConfig(problem="pec", geometry=GEOM, k=K, L=40)
    eng = IndicatorEngine(cfg, tau_max=10.0)
    s = eng.sample(RHO, 10.0, 0.0)
    assert s.trusted and s.trace_tail < 1e-8
    s2 = eng.sample(RHO, 40.0, 0.0)     # far beyond what L=40 resolves
    assert not s2.trusted


def test_empty_problem_sweeps_to_zero():
    cfg = SweepConfig(problem="empty", geometry=GEOM, k=K, L=24)
    sweep = IndicatorEngine(cfg, tau_max=6.0).tau_sweep(RHO, 0.5, [5.0, 6.0])
    assert all(s.value.is_zero for s in sweep)
    assert all(s.ln_abs == -math.inf for s in sweep)


def reference_indicator_sum(engine, probe, energies, ln_scale):
    """The Parseval sum as L per-degree ScaledComplex additions."""
    dlam = engine.op_d.diff_empty
    pref = 1j * probe.k * probe.tau * engine.op_d.r_domain**2
    terms = pref * (np.conj(dlam[TE]) * energies[POL_U]
                    - np.conj(dlam[TM]) * energies[POL_V])
    total = ScaledComplex.zero()
    for term in terms:
        if term != 0.0:
            total = total + scaled(term, 2.0 * ln_scale)
    return total


@pytest.mark.parametrize("problem", ["pec", "transmission"])
def test_indicator_value_matches_per_degree_sum(problem):
    """Both callers of the rescaled sum against the per-degree sum: the
    engine on closed-form energies, indicator_value on a VSH trace."""
    cfg = SweepConfig(problem=problem, geometry=GEOM, k=K, L=64,
                      medium=Medium(0.5) if problem == "transmission" else None)
    eng = IndicatorEngine(cfg, tau_max=50.0)
    rho = np.array([0.6, 0.0, 0.8])
    transform = get_transform(eng.L)

    def assert_close(value, ref):
        diff = value - ref
        assert diff.is_zero or diff.ln_abs() - ref.ln_abs() < math.log(1e-13)

    for tau in (10.0, 20.0, 30.0, 40.0, 50.0):
        for s in eng.t_sweep(rho, tau, [0.3, 0.7]):
            probe = eng.probe(rho, tau, s.t)
            ln_scale = tau * (GEOM.r_domain - s.t)
            energies = trace_energies(probe, GEOM.r_domain, eng.L)
            assert_close(s.value, reference_indicator_sum(eng, probe, energies, ln_scale))
            trace, _ = cgo_trace(probe, GEOM.r_domain, eng.L, transform)
            assert_close(indicator_value(eng.op_d, eng.op_empty, probe, trace=trace),
                         reference_indicator_sum(eng, probe, trace.degree_energies(),
                                                 trace.ln_scale))


def test_indicator_direction_independent_at_high_tau():
    """For the concentric ball the indicator does not depend on rho; at
    L = 96, tau = 50 the closed-form energies keep that to roundoff."""
    cfg = SweepConfig(problem="pec", geometry=GEOM, k=K, L=96)
    eng = IndicatorEngine(cfg, tau_max=50.0)
    rng = np.random.default_rng(3)
    lns = [eng.sample(rng.standard_normal(3), 50.0, 0.5).ln_abs for _ in range(16)]
    assert max(lns) - min(lns) < 1e-10
