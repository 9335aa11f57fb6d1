import math

import mpmath
import numpy as np
import pytest

from enclosure.cgo import CgoMode, build_probe, eval_cgo_batch
from enclosure.conventions import POL_U, POL_V, TE, TM
from enclosure.errors import TruncationInsufficient
from enclosure.forward import (Geometry, Medium, solution_empty, solution_pec,
                               solution_transmission)
from enclosure.indicator import (IndicatorEngine, IndicatorTable, _degree_sum,
                                 _legendre_derivatives, _trace_weights,
                                 auto_degree,
                                 cgo_trace, indicator_value, trace_energies,
                                 volume_indicator_pec,
                                 volume_indicator_transmission)
from enclosure.mathkit import ScaledComplex, cross3, get_transform, scaled
from enclosure.recon import synth_translated

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
    """The closed form against the VSH analysis of the sampled trace, at a
    random direction (the closed form takes none) and at k = 1, 0.4 and 2.5
    (at k = 1 a wrong power of k would pass).

    The analysis runs at max(L, 64): at L = 24 the trace is not band-limited
    from tau = 10 on, and its top degrees alias."""
    rng = np.random.default_rng(int(10 * tau) + L)
    for k in (K, 0.4, 2.5):
        probe = build_probe(k, tau, 0.4, rng.standard_normal(3), mode)
        closed = trace_energies(k, tau, mode, 1.0, L)
        ref = cgo_trace(probe, 1.0, max(L, 64))[0].degree_energies()[:, :L + 1]
        carried = ref > 1e-12 * ref.sum()
        assert np.all(closed[:, 0] == 0.0)
        assert np.max(np.abs(closed - ref)[carried] / ref[carried]) < 1e-8, k


def test_trace_weights_match_probe_algebra():
    """The closed-form weights a = |u|^2 / k^2 and b = |u.conj(zeta)|^2 / k^4,
    u = w x zeta, against the cross products of built probes at random
    directions; an exact zero is compared against the scale tau^2 a."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(200):
        k, tau = rng.uniform(0.2, 3.0), rng.uniform(0.5, 80.0)
        for mode in CgoMode:
            p = build_probe(k, tau, 0.0, rng.standard_normal(3), mode)
            zeta = p.zeta
            for w, (a, b) in zip((p.eta, cross3(zeta, p.eta) / k),
                                 _trace_weights(k, tau, mode)):
                u = cross3(w, zeta)
                a_ref = float(np.vdot(u, u).real) / k**2
                b_ref = abs(u @ np.conj(zeta)) ** 2 / k**4
                worst = max(worst, abs(a - a_ref) / a_ref,
                            abs(b - b_ref) / (b_ref if b else tau * tau * a_ref))
    assert worst < 1e-9


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


def test_degree_sum_of_subnormal_terms():
    """Terms below the normal range still sum: the power-of-two rescale
    stops at 2**1021, where 2**-nbits would leave the double range."""
    dlam = np.ones((2, 3), dtype=complex)
    energies = np.zeros((2, 3))
    energies[POL_U] = 1e-320
    mantissa, exponent = _degree_sum(dlam, 1.0, 1.0, 1.0, energies, 0.0)
    assert 0.5 <= abs(mantissa) < 1.0
    assert abs(math.log(abs(mantissa)) + exponent - math.log(3e-320)) < 1e-3


def test_empty_difference_gives_exact_zero():
    op_e = solution_empty(K, 1.0, 24).operator
    probe = build_probe(K, 6.0, 0.3, RHO, CgoMode.IMPENETRABLE)
    val = indicator_value(op_e, probe)
    assert val.is_zero
    assert val.ln_abs() == -math.inf


def test_scaling_identity_exact():
    L = 40
    sol = solution_pec(K, GEOM, L)
    for tau in (8.0, 14.0):
        p = build_probe(K, tau, 0.25, RHO, CgoMode.IMPENETRABLE)
        i1 = indicator_value(sol.operator, p)
        i2 = indicator_value(sol.operator, p.with_t(0.85))
        shifted = i1.scale_exp(2.0 * tau * (0.25 - 0.85))
        rel = (i2 - shifted).abs() / i2.abs()
        assert rel < 1e-12


def test_pec_energy_identity():
    """Boundary indicator vs Lemma-structure volume assembly, tau = 15."""
    L = 48
    sol = solution_pec(K, GEOM, L)
    probe = build_probe(K, 15.0, 0.0, RHO, CgoMode.IMPENETRABLE)
    bdry = indicator_value(sol.operator, probe).to_complex()
    vol = volume_indicator_pec(probe, GEOM, sol.operator, solution=sol)
    assert abs(bdry.real - vol) < 1e-3 * abs(vol)
    assert abs(bdry.imag) < 1e-6 * abs(vol)


def test_pec_energy_inequality():
    """-I/tau >= int_D(|curl H0|^2 - k^2|H0|^2) - k^2 int |H~|^2 (eq. chain)."""
    L = 40
    sol = solution_pec(K, GEOM, L)
    probe = build_probe(K, 10.0, 0.2, RHO, CgoMode.IMPENETRABLE)
    lhs = -indicator_value(sol.operator, probe).to_complex().real / probe.tau

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
    probe = build_probe(K, 10.0, 0.0, RHO, CgoMode.PENETRABLE)
    bdry = indicator_value(sol.operator, probe).to_complex()
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
    probe = build_probe(K, tau, 0.0, RHO, CgoMode.PENETRABLE)
    bdry = indicator_value(sol.operator, probe).to_complex()
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
    probe = build_probe(K, 8.0, 0.0, RHO, CgoMode.PENETRABLE)
    val = indicator_value(sol.operator, probe)
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
        trace, tail = cgo_trace(probe, 1.0, L)
        assert tail < 1e-8
        vals.append(indicator_value(sol.operator, probe, trace=trace))
    rel = abs(math.exp(vals[0].ln_abs() - vals[1].ln_abs()) - 1.0)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# sweeps


def _engine(L, medium=None):
    """The engine of the PEC ball without a medium, of the mu jump with
    one, each read by its own probe family."""
    if medium is None:
        return IndicatorEngine(solution_pec(K, GEOM, L).operator, CgoMode.IMPENETRABLE)
    return IndicatorEngine(solution_transmission(K, GEOM, medium, L).operator,
                           CgoMode.PENETRABLE)


def test_t_sweep_is_affine_in_t():
    eng = _engine(40)
    lns = eng.sweep([RHO], [12.0], [0.0, 0.25, 0.5, 0.75, 1.0]).ln_abs()[0, :, 0]
    slopes = np.diff(lns) / 0.25
    assert np.max(np.abs(slopes + 2.0 * 12.0)) < 1e-9


def test_tau_sweep_dichotomy_signs():
    taus = [10.0, 14.0, 18.0, 22.0, 26.0]
    eng = _engine(56)
    d_above = np.diff(eng.sweep([RHO], taus, [0.7]).ln_abs()[0, 0])
    d_below = np.diff(eng.sweep([RHO], taus, [0.3]).ln_abs()[0, 0])
    assert np.all(d_above < 0)          # decay above the support level
    assert np.all(d_below > 0)          # growth below it


def test_slope_sign_stability_near_support():
    taus = np.linspace(10.0, 30.0, 9)
    eng = _engine(56)
    for t, sign in ((0.6, -1.0), (0.4, +1.0)):
        lns = eng.sweep([RHO], taus, [t]).ln_abs()[0, 0]
        slopes = np.diff(lns) / np.diff(taus)
        assert np.all(np.sign(slopes) == sign), (t, slopes)


def test_engine_trust_diagnostics():
    eng = _engine(40)
    table = eng.sweep([RHO], [10.0, 40.0], [0.0])   # 40 is far beyond L=40
    assert table.trusted[0, 0, 0] and table.tail[0, 0, 0] < 1e-8
    assert not table.trusted[0, 0, 1]


def _table(mantissa, exponent, trusted=True, rhos=(RHO, -RHO)):
    """A table of two directions at one (t, tau) cell per given value."""
    shape = (1, 1, np.size(mantissa))
    return IndicatorTable(rhos=np.array(rhos), taus=10.0 + np.arange(shape[2]),
                          ts=np.zeros(1), mantissa=np.reshape(mantissa, shape),
                          exponent=np.reshape(exponent, shape),
                          tail=np.zeros(shape), trusted=trusted)


@pytest.mark.parametrize("value", [(complex(math.nan, 1.0), 0.0),
                                   (1.0 + 0j, math.inf),
                                   (1.0 + 0j, math.nan)],
                         ids=["nan mantissa", "inf exponent", "nan exponent"])
def test_non_finite_value_is_never_trusted(value):
    """The table's rule, entry by entry: a value that is not finite is
    never trusted, whatever the tail says; a finite one keeps its flag."""
    ok = (0.5 + 0.5j, 700.0)
    table = _table([value[0], ok[0], ok[0]], [value[1], ok[1], ok[1]],
                   trusted=[True, True, False])
    assert table.trusted.tolist() == [[[False, True, False]]]
    # a translation re-applies the rule to the exponent it shifts
    shifted = synth_translated(_table(ok[0], ok[1]), [0.0, 0.0, math.inf])
    assert np.broadcast_to(shifted.trusted, shifted.shape).tolist() == [[[False]], [[False]]]


def test_ln_abs_is_the_scalar_arithmetic_of_scaled_complex():
    """ln|I| per entry is `ScaledComplex.ln_abs` bit for bit; np.log and
    np.abs on complex values differ from it in the last bit."""
    rng = np.random.default_rng(11)
    m = rng.uniform(0.5, 2.0, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    e = rng.uniform(-50.0, 50.0, 400)
    table = _table(m, e)
    want = [ScaledComplex(complex(a), float(b)).ln_abs() for a, b in zip(m, e)]
    assert table.ln_abs().ravel().tolist() == want


def test_empty_problem_sweeps_to_zero():
    """No obstacle: every value is the exact zero (mantissa 0, exponent 0)
    and ln|I| is the -inf sentinel, on every direction."""
    eng = IndicatorEngine(solution_empty(K, 1.0, 24).operator, CgoMode.IMPENETRABLE)
    table = eng.sweep([RHO, -RHO], [5.0, 6.0], [0.5, 0.7])
    assert np.all(table.mantissa == 0) and np.all(table.exponent == 0.0)
    ln = np.broadcast_to(table.ln_abs(), table.shape)
    assert ln.shape == (2, 2, 2) and np.all(ln == -math.inf)
    # a translation leaves the zeros as they are
    shifted = synth_translated(table, [0.3, 0.0, 0.2])
    assert np.all(shifted.exponent == 0.0) and np.all(shifted.ln_abs() == -math.inf)


def test_translation_shifts_each_exponent_by_the_scalar_product():
    """The exponent shift is 2 tau float(c @ rho), bit for bit, per
    direction: the arithmetic of a one-sample translation."""
    rng = np.random.default_rng(2)
    rhos = rng.standard_normal((12, 3))
    rhos /= np.linalg.norm(rhos, axis=1)[:, None]
    taus, c = [10.0, 12.5, 17.25, 30.0], rng.uniform(-0.2, 0.2, 3)
    table = _engine(48).sweep(rhos, taus, [0.3, 0.7])
    shifted = synth_translated(table, c)
    assert shifted.exponent.shape == table.shape
    assert np.array_equal(shifted.mantissa, table.mantissa)
    for i, rho in enumerate(rhos):
        for j in range(2):
            for k, tau in enumerate(taus):
                want = table.exponent[0, j, k] + 2.0 * tau * float(c @ rho)
                assert shifted.exponent[i, j, k] == want


def reference_indicator_sum(engine, probe, energies, ln_scale):
    """The Parseval sum as L per-degree ScaledComplex additions."""
    dlam = engine.op.diff_empty
    pref = 1j * probe.k * probe.tau * engine.op.r_domain**2
    terms = pref * (np.conj(dlam[TE]) * energies[POL_U]
                    - np.conj(dlam[TM]) * energies[POL_V])
    total = ScaledComplex.zero()
    for term in terms:
        if term != 0.0:
            total = total + scaled(term, 2.0 * ln_scale)
    return total


@pytest.mark.parametrize("medium", [None, Medium(0.5)], ids=["pec", "transmission"])
def test_indicator_value_matches_per_degree_sum(medium):
    """Both callers of the rescaled sum against the per-degree sum: the
    engine on closed-form energies, indicator_value on a VSH trace."""
    eng = _engine(64, medium)
    rho = np.array([0.6, 0.0, 0.8])
    transform = get_transform(eng.L)

    def assert_close(value, ref):
        diff = value - ref
        assert diff.is_zero or diff.ln_abs() - ref.ln_abs() < math.log(1e-13)

    for tau in (10.0, 20.0, 30.0, 40.0, 50.0):
        table = eng.sweep([rho], [tau], [0.3, 0.7])
        for j, t in enumerate(table.ts):
            value = ScaledComplex(complex(table.mantissa[0, j, 0]),
                                  float(table.exponent[0, j, 0]))
            probe = build_probe(K, tau, t, rho, eng.mode)
            ln_scale = tau * (GEOM.r_domain - t)
            energies = trace_energies(K, tau, eng.mode, GEOM.r_domain, eng.L)
            assert_close(value, reference_indicator_sum(eng, probe, energies, ln_scale))
            trace, _ = cgo_trace(probe, GEOM.r_domain, eng.L, transform)
            assert_close(indicator_value(eng.op, probe, trace=trace),
                         reference_indicator_sum(eng, probe, trace.degree_energies(),
                                                 trace.ln_scale))


def test_indicator_direction_independent_at_high_tau():
    """For the concentric ball the indicator does not depend on rho; the
    engine shares one value per (tau, t) across directions.  The probe-based
    check of that invariance is `test_trace_energies_match_transform`."""
    eng = _engine(96)
    rng = np.random.default_rng(3)
    table = eng.sweep(rng.standard_normal((16, 3)), [50.0], [0.5])
    lns = np.broadcast_to(table.ln_abs(), table.shape)
    assert lns.shape == (16, 1, 1) and np.ptp(lns) < 1e-10
