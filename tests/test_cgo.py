import math

import mpmath
import numpy as np
import pytest

from enclosure.cgo import (CgoMode, build_probe, cgo_identity_defect,
                           cgo_volume_norms, curl_amplitudes, eval_cgo_batch,
                           make_zeta)
from enclosure.mathkit import Frame, build_frame

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
FRAME_Z_X = Frame(rho=E3, rho_perp=E1, rho_cross=np.cross(E3, E1))


def ln_ball_integral_mp(s, center_shift, radius):
    """ln of the integral of exp(s (x.rho - t)) over a ball of the given
    radius whose centre lies at x.rho - t = center_shift, in 40-digit mpmath.

    Sliced along rho, the disc at height z has area pi (radius^2 - z^2).
    """
    with mpmath.workdps(40):
        s, r = mpmath.mpf(s), mpmath.mpf(radius)
        total = mpmath.quad(lambda z: mpmath.pi * (r * r - z * z) * mpmath.exp(s * z),
                            [-r, 0, r])
        return mpmath.log(total) + s * mpmath.mpf(center_shift)


def ln_norm_mp(amp, q, tau, center_shift, radius):
    """ln ||amp exp(tau (x.rho - t))||_q over the ball, in mpmath."""
    with mpmath.workdps(40):
        amp_norm = mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(a)) ** 2 for a in amp))
        return mpmath.log(amp_norm) + ln_ball_integral_mp(q * tau, center_shift,
                                                          radius) / q


# ---------------------------------------------------------------------------
# zeta


def test_make_zeta_explicit_example():
    # k=1, tau=2, rho=e3, rho_perp=e1 -> zeta = (sqrt5, 0, -2i)
    z = make_zeta(1.0, 2.0, FRAME_Z_X)
    assert np.allclose(z, [math.sqrt(5.0), 0.0, -2.0j], atol=1e-14)
    assert abs(z @ z - 1.0) < 1e-14


def test_zeta_imaginary_part_is_minus_tau_rho():
    f = build_frame([0.3, -0.5, 0.81])
    z = make_zeta(1.7, 9.0, f)
    assert np.allclose(z.imag, -9.0 * f.rho, atol=1e-12)


def test_zeta_norm_squared():
    f = build_frame([0.0, 1.0, 0.0])
    z = make_zeta(2.0, 10.0, f)
    assert abs(np.vdot(z, z).real - 204.0) < 1e-10   # 2 tau^2 + k^2


def test_make_zeta_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_zeta(0.0, 1.0, FRAME_Z_X)
    with pytest.raises(ValueError):
        make_zeta(1.0, -1.0, FRAME_Z_X)


# ---------------------------------------------------------------------------
# probe algebra


def test_probe_cross_product_oracle():
    """Independent evaluation of the symbol identities for the worked example."""
    k, tau = 1.0, 2.0
    p = build_probe(k, tau, 0.0, FRAME_Z_X, CgoMode.IMPENETRABLE)
    assert np.allclose(p.a, math.sqrt(2.0) * E1)
    assert np.allclose(p.b, E3 * 0 + np.cross(E3, E1))
    # recompute eta, theta from scratch
    zeta = np.array([math.sqrt(5.0), 0.0, -2.0j])
    zabs = math.sqrt(2 * tau**2 + k**2)
    a, b = math.sqrt(2.0) * E1, np.cross(E3, E1).astype(complex)
    eta = (-(zeta @ a) * zeta - k * np.cross(zeta, b) + k**2 * a) / zabs
    theta = (k * np.cross(zeta, a) - (zeta @ b) * zeta + k**2 * b) / zabs
    assert np.allclose(p.eta, eta, atol=1e-14)
    assert np.allclose(p.theta, theta, atol=1e-14)
    assert np.max(np.abs(np.cross(zeta, eta) - k * theta)) < 1e-12


def test_probe_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = rng.uniform(0.5, 2.0)
        tau = rng.uniform(1.0, 50.0)
        mode = CgoMode.IMPENETRABLE if rng.random() < 0.5 else CgoMode.PENETRABLE
        p = build_probe(k, tau, 0.0, rng.standard_normal(3), mode)
        assert cgo_identity_defect(p) < 1e-12


def test_divergence_free_symbol():
    p = build_probe(1.5, 7.0, 0.0, [0.1, 0.9, 0.2], CgoMode.PENETRABLE)
    zabs = np.linalg.norm(p.zeta)
    assert abs(p.zeta @ p.eta) / (zabs * np.linalg.norm(p.eta)) < 1e-14


@pytest.mark.parametrize("mode,grow_eta", [(CgoMode.IMPENETRABLE, True),
                                           (CgoMode.PENETRABLE, False)])
def test_asymptotic_regimes(mode, grow_eta):
    """Impenetrable: |eta| ~ tau, |theta| ~ 1; penetrable the converse."""
    taus = np.arange(10.0, 101.0, 10.0)
    ratios_grow, ratios_flat = [], []
    for tau in taus:
        p = build_probe(1.0, tau, 0.0, [0.2, -0.3, 0.93], mode)
        ne, nt = np.linalg.norm(p.eta), np.linalg.norm(p.theta)
        grow, flat = (ne, nt) if grow_eta else (nt, ne)
        ratios_grow.append(grow / tau)
        ratios_flat.append(flat)
    for seq in (ratios_grow, ratios_flat):
        assert min(seq) > 0.1
        assert max(seq) / min(seq) < 3.0


# ---------------------------------------------------------------------------
# evaluation


def fd_jacobian(p, x, h=1e-6):
    """Central differences of E0 at x, peel 0: jac[j, i] = d E0_i / d x_j."""
    steps = h * np.eye(3)
    ep, _ = eval_cgo_batch(p, x + steps, 0.0)
    em, _ = eval_cgo_batch(p, x - steps, 0.0)
    return (ep - em) / (2 * h)


def test_eval_on_level_surface():
    p = build_probe(1.0, 8.0, 0.4, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
    x = np.array([[0.3, -0.2, 0.4]])     # x . rho = t
    for peel in (0.0, 2.5):
        e0m, h0m = eval_cgo_batch(p, x, peel)
        assert abs(math.log(np.linalg.norm(e0m[0])) + peel
                   - math.log(np.linalg.norm(p.eta))) < 1e-12
        assert abs(math.log(np.linalg.norm(h0m[0])) + peel
                   - math.log(np.linalg.norm(p.theta))) < 1e-12


def test_fd_curl_matches_maxwell():
    p = build_probe(1.3, 6.0, 0.0, [0.4, 0.5, 0.768], CgoMode.PENETRABLE)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(3) * 0.3
        x -= p.frame.rho * (x @ p.frame.rho)    # exponent ~ 0 at these points
        jac = fd_jacobian(p, x)
        curl = np.array([jac[1, 2] - jac[2, 1],
                         jac[2, 0] - jac[0, 2],
                         jac[0, 1] - jac[1, 0]])
        ref = 1j * p.k * eval_cgo_batch(p, x[None], 0.0)[1][0]
        assert np.max(np.abs(curl - ref)) < 1e-6 * np.max(np.abs(ref))


def test_fd_divergence_free():
    p = build_probe(0.8, 5.0, 0.0, [0.0, 1.0, 0.0], CgoMode.IMPENETRABLE)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(3) * 0.3
        x -= p.frame.rho * (x @ p.frame.rho)
        div = np.trace(fd_jacobian(p, x))
        e0m, _ = eval_cgo_batch(p, x[None], 0.0)
        scale = p.tau * np.max(np.abs(e0m))
        assert abs(div) < 1e-6 * scale


def test_translation_law():
    """E0(x + c) = E0(x) exp(tau c.rho + i |.| c.rho_perp); peeling the
    exponent shift leaves only the phase."""
    p = build_probe(1.0, 12.0, 0.2, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(3) * 0.2
    c = rng.standard_normal(3) * 0.3
    dexp = p.tau * (c @ p.frame.rho)
    dphase = p.phase_wavenumber * (c @ p.frame.rho_perp)
    e1, _ = eval_cgo_batch(p, (x + c)[None], dexp)
    e0, _ = eval_cgo_batch(p, x[None], 0.0)
    assert np.max(np.abs(e1 - e0 * np.exp(1j * dphase))) < 1e-12 * np.max(np.abs(e0))


def test_curl_amplitude_identity():
    p = build_probe(1.4, 11.0, 0.0, [0.5, -0.5, 0.7071], CgoMode.IMPENETRABLE)
    ce, ch = curl_amplitudes(p)
    assert np.max(np.abs(ce - 1j * p.k * p.theta)) < 1e-10
    assert np.max(np.abs(ch + 1j * p.k * p.eta)) < 1e-10


# ---------------------------------------------------------------------------
# volume norms


def test_volume_norms_against_closed_form():
    k, tau, t = 1.0, 8.0, 0.3
    center, radius = np.array([0.1, 0.0, 0.2]), 0.5
    p = build_probe(k, tau, t, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
    ne, nh, nc = cgo_volume_norms(p, (center, radius), q=2.0)
    shift = center @ p.frame.rho - t
    for norm, amp in ((ne, p.eta), (nh, p.theta), (nc, curl_amplitudes(p)[1])):
        ref_ln = float(ln_norm_mp(amp, 2.0, tau, shift, radius))
        assert abs(norm.ln_abs() - ref_ln) < 1e-8


def test_volume_norms_q_general():
    p = build_probe(1.0, 5.0, 0.1, [0.6, 0.0, 0.8], CgoMode.PENETRABLE)
    center, radius = np.array([0.2, -0.3, 0.1]), 0.4
    ne3, nh3, nc3 = cgo_volume_norms(p, (center, radius), q=3.0)
    shift = center @ p.frame.rho - p.t
    for norm, amp in ((ne3, p.eta), (nh3, p.theta), (nc3, curl_amplitudes(p)[1])):
        ref_ln = ln_norm_mp(amp, 3.0, p.tau, shift, radius)
        assert abs(norm.ln_abs() - float(ref_ln)) < 1e-13


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.25)])
@pytest.mark.parametrize("sr", [1e-3, 0.1, 0.499, 0.5, 0.7, 3.0, 20.0, 100.0])
def test_volume_norms_match_mpmath(q, center, sr):
    """The exact ball weight holds to 1e-14 relative across s r = q tau r,
    through the series branch, the switch at 0.5 and the peeled closed form."""
    radius = 0.5
    center = np.array(center)
    rho = np.array([0.48, 0.6, 0.64])
    tau = sr / (q * radius)
    # t at the ball's top keeps the peel near 0, so ln values stay O(1)
    t = center @ rho + radius
    p = build_probe(1.0, tau, t, rho, CgoMode.IMPENETRABLE)
    norms = cgo_volume_norms(p, (center, radius), q=q)
    shift = center @ p.frame.rho - t
    for norm, amp in zip(norms, (p.eta, p.theta, curl_amplitudes(p)[1])):
        ref_ln = ln_norm_mp(amp, q, tau, shift, radius)
        assert abs(norm.ln_abs() - float(ref_ln)) < 1e-14, (q, sr)


def test_lemma_ratio_h0_curl_h0():
    """tau^2 ||H0||^2 / ||curl H0||^2 stays within a factor 2 of its tau=5
    value across tau in [5, 40] at the critical level t = h_D."""
    ball = (np.zeros(3), 0.5)
    ratios = {}
    for tau in (5.0, 10.0, 20.0, 30.0, 40.0):
        p = build_probe(1.0, tau, 0.5, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
        _, nh, nc = cgo_volume_norms(p, ball, q=2.0)
        ratios[tau] = tau**2 * math.exp(2.0 * (nh.ln_abs() - nc.ln_abs()))
    r5 = ratios[5.0]
    for tau, r in ratios.items():
        assert r5 / 2.0 <= r <= 2.0 * r5, (tau, r, r5)


def test_lemma_curl_h0_lower_bound():
    """tau ||curl H0||^2_2 at t = h_D stays bounded below along the sweep."""
    ball = (np.zeros(3), 0.5)
    vals = []
    for tau in (5.0, 10.0, 20.0, 30.0, 40.0):
        p = build_probe(1.0, tau, 0.5, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
        _, _, nc = cgo_volume_norms(p, ball, q=2.0)
        vals.append(math.log(tau) + 2.0 * nc.ln_abs())
    assert min(vals) > math.log(1e-3)
    # the bound is not just positive but non-degenerate: values grow with tau
    assert vals[-1] > vals[0]


def test_decay_regime_above_support():
    """t = h_D + 1: all norms decay at the exponential rate of the gap."""
    ball = (np.zeros(3), 0.5)
    prev = None
    for tau in (5.0, 10.0, 15.0, 20.0):
        p = build_probe(1.0, tau, 1.5, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
        ne, nh, nc = cgo_volume_norms(p, ball, q=2.0)
        lnorm = nh.ln_abs()
        if prev is not None:
            dtau = 5.0
            assert lnorm - prev < -0.9 * dtau    # ||H0||_2 ~ exp(-tau) poly
        prev = lnorm


def test_bad_ball_and_q():
    p = build_probe(1.0, 5.0, 0.0, [0.0, 0.0, 1.0], CgoMode.IMPENETRABLE)
    with pytest.raises(ValueError):
        cgo_volume_norms(p, (np.zeros(3), -1.0))
    with pytest.raises(ValueError):
        cgo_volume_norms(p, (np.zeros(3), 0.5), q=0.5)
