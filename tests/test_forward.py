import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from enclosure.conventions import POL_U, POL_V, TE, TM
from enclosure.errors import (DegreeMismatch, InvalidMedium, NearEigenvalue,
                              PointOutOfDomain)
from enclosure.forward import (Geometry, Medium, apply_impedance,
                               solution_empty, solution_pec,
                               solution_transmission)
from enclosure.mathkit import VshCoeffs, get_transform

K = 1.0
GEOM = Geometry(0.5, 1.0)


# ---------------------------------------------------------------------------
# radial ODE boundary-value oracle
#
# Both polarizations reduce to W'' + (k^2 mu(r) - l(l+1)/r^2) W = 0.  TE uses
# W = r * (tangential E profile): W continuous, W'/mu continuous, and the
# impedance entry is -i W'(R)/(k W(R)).  TM uses X = r * (tangential H
# profile): X, X' continuous, entry -i k X(R)/X'(R).  Integrated with an
# independent Runge-Kutta solver and series initial data near the origin.


def _series_psi(l, z):
    """psi_l(z) = z j_l(z) by a few Taylor terms (tiny z only)."""
    acc, term = 0.0, 1.0
    dfac = 1.0
    for n in range(0, l + 1):
        dfac *= 2 * n + 1
    for n in range(6):
        if n:
            term *= -(z * z / 2.0) / (n * (2 * l + 2 * n + 1))
        acc += term
    return z ** (l + 1) / dfac * acc


def _series_dpsi(l, z, h=1e-8):
    return (_series_psi(l, z + h) - _series_psi(l, z - h)) / (2 * h)


def _integrate(l, k2mu_fn, r0, w0, dw0, r1):
    def rhs(r, y):
        return [y[1], (l * (l + 1) / r**2 - k2mu_fn(r)) * y[0]]
    sol = solve_ivp(rhs, (r0, r1), [w0, dw0], rtol=1e-11, atol=1e-14,
                    dense_output=True)
    assert sol.success
    return sol.y[0, -1], sol.y[1, -1]


def ode_lambda_empty(l, k, R):
    r0 = 1e-3
    w0, dw0 = _series_psi(l, k * r0), k * _series_dpsi(l, k * r0)
    w, dw = _integrate(l, lambda r: k * k, r0, w0, dw0, R)
    lam_te = -1j * dw / (k * w)
    lam_tm = -1j * k * w / dw
    return lam_te, lam_tm


def ode_lambda_pec(l, k, geom):
    # TE: W'(R_D) = 0 (nu^H = 0); TM: X(R_D) = 0
    w, dw = _integrate(l, lambda r: k * k, geom.r_obstacle, 1.0, 0.0,
                       geom.r_domain)
    lam_te = -1j * dw / (k * w)
    x, dx = _integrate(l, lambda r: k * k, geom.r_obstacle, 0.0, 1.0,
                       geom.r_domain)
    lam_tm = -1j * k * x / dx
    return lam_te, lam_tm


def ode_lambda_transmission(l, k, geom, medium):
    mu = medium.mu_inside
    k_in = k * math.sqrt(mu)
    r0 = 1e-3

    # TE: W cont, W'/mu cont across the interface
    w0, dw0 = _series_psi(l, k_in * r0), k_in * _series_dpsi(l, k_in * r0)
    w, dw = _integrate(l, lambda r: k_in**2, r0, w0, dw0, geom.r_obstacle)
    w, dw = w, dw / mu
    w, dw = _integrate(l, lambda r: k * k, geom.r_obstacle, w, dw, geom.r_domain)
    lam_te = -1j * dw / (k * w)

    # TM: X and X' continuous
    x, dx = _integrate(l, lambda r: k_in**2, r0, w0, dw0, geom.r_obstacle)
    x, dx = _integrate(l, lambda r: k * k, geom.r_obstacle, x, dx, geom.r_domain)
    lam_tm = -1j * k * x / dx
    return lam_te, lam_tm


@pytest.mark.parametrize("l", [1, 2])
def test_empty_entries_match_ode_oracle(l):
    op = solution_empty(K, GEOM.r_domain, 5).operator
    te, tm = ode_lambda_empty(l, K, GEOM.r_domain)
    assert abs(op.lam[TE, l] - te) < 1e-8 * abs(te)
    assert abs(op.lam[TM, l] - tm) < 1e-8 * abs(tm)


@pytest.mark.parametrize("l", [1, 2])
def test_pec_entries_match_ode_oracle(l):
    op = solution_pec(K, GEOM, 5).operator
    te, tm = ode_lambda_pec(l, K, GEOM)
    assert abs(op.lam[TE, l] - te) < 1e-8 * abs(te)
    assert abs(op.lam[TM, l] - tm) < 1e-8 * abs(tm)


@pytest.mark.parametrize("mu_c", [0.5, -0.5])
def test_transmission_entries_match_ode_oracle(mu_c):
    med = Medium(mu_c)
    op = solution_transmission(K, GEOM, med, 5).operator
    te, tm = ode_lambda_transmission(1, K, GEOM, med)
    assert abs(op.lam[TE, 1] - te) < 1e-8 * abs(te)
    assert abs(op.lam[TM, 1] - tm) < 1e-8 * abs(tm)


# ---------------------------------------------------------------------------
# structural properties


def test_pec_small_obstacle_limit():
    op_small = solution_pec(K, Geometry(1e-3, 1.0), 5).operator
    op_empty = solution_empty(K, 1.0, 5).operator
    rel = np.abs(op_small.lam[:, 1:6] - op_empty.lam[:, 1:6]) \
        / np.abs(op_empty.lam[:, 1:6])
    assert np.max(rel) < 1e-6


def test_transmission_no_contrast_is_empty():
    op = solution_transmission(K, GEOM, Medium(0.0), 8).operator
    ref = solution_empty(K, 1.0, 8).operator
    assert np.max(np.abs(op.lam[:, 1:] - ref.lam[:, 1:])) < 1e-12
    assert np.max(np.abs(op.diff_empty)) == 0.0


def test_operator_difference_geometric_envelope():
    """|lam_D - lam_empty| decays like (R_D/R)^(2l+1) up to bounded factors."""
    L = 20
    op = solution_pec(K, GEOM, L).operator
    q = (GEOM.r_obstacle / GEOM.r_domain) ** 2
    for pol in (TE, TM):
        mags = np.abs(op.diff_empty[pol, 1:L + 1])
        ratios = mags[1:] / mags[:-1]
        assert np.all(ratios < q * 2.0)
        assert np.all(ratios > q / 2.0)


def test_diff_empty_matches_subtraction_at_low_l():
    op = solution_pec(K, GEOM, 12).operator
    ref = solution_empty(K, 1.0, 12).operator
    direct = op.lam - ref.lam
    rel = np.abs(op.diff_empty[:, 1:7] - direct[:, 1:7]) / np.abs(direct[:, 1:7])
    assert np.max(rel) < 1e-9


def test_transmission_continuous_in_contrast():
    eps = 1e-6
    a = solution_transmission(K, GEOM, Medium(eps), 6).operator.lam
    b = solution_transmission(K, GEOM, Medium(-eps), 6).operator.lam
    fd = np.abs(a[:, 1:] - b[:, 1:]) / (2 * eps)
    assert np.all(np.isfinite(fd))
    assert np.max(fd) < 10.0          # bounded derivative near zero contrast


def test_near_eigenvalue_guard():
    # first zero of psi_1: k R at the TE l=1 interior Maxwell eigenvalue
    k_eig = 4.493409457909064
    with pytest.raises(NearEigenvalue):
        solution_empty(k_eig, 1.0, 4)


def test_invalid_medium():
    with pytest.raises(InvalidMedium):
        solution_transmission(K, GEOM, Medium(1.0), 4)
    with pytest.raises(InvalidMedium):
        solution_transmission(K, GEOM, Medium(1.5), 4)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(1.0, 0.5)
    with pytest.raises(ValueError):
        Geometry(0.0, 1.0)


# ---------------------------------------------------------------------------
# operator application


def test_apply_zero_and_single_mode():
    L = 6
    op = solution_pec(K, GEOM, L).operator
    z = VshCoeffs.zeros(L)
    assert np.all(apply_impedance(op, z).data == 0)
    f = VshCoeffs.single_mode(L, 3, 2, POL_U, 1.0 + 2.0j)
    g = apply_impedance(op, f)
    assert g.data[POL_V, 3, 2 + L] == op.lam[TE, 3] * (1.0 + 2.0j)
    g.data[POL_V, 3, 2 + L] = 0.0
    assert np.max(np.abs(g.data)) == 0.0


def test_apply_linearity():
    L = 8
    op = solution_transmission(K, GEOM, Medium(0.5), L).operator
    rng = np.random.default_rng(9)
    f1, f2 = VshCoeffs.zeros(L), VshCoeffs.zeros(L)
    f1.data[:] = rng.standard_normal(f1.data.shape) + 1j * rng.standard_normal(f1.data.shape)
    f2.data[:] = rng.standard_normal(f2.data.shape) + 1j * rng.standard_normal(f2.data.shape)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    comb = VshCoeffs(L, a * f1.data + b * f2.data)
    lhs = apply_impedance(op, comb).data
    rhs = a * apply_impedance(op, f1).data + b * apply_impedance(op, f2).data
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_apply_m_independence():
    L = 6
    op = solution_pec(K, GEOM, L).operator
    outs = []
    for m in (-4, 0, 3):
        f = VshCoeffs.single_mode(L, 4, m, POL_V)
        outs.append(apply_impedance(op, f).data[POL_U, 4, m + L])
    assert np.allclose(outs, outs[0], atol=0, rtol=1e-15)


def test_apply_degree_mismatch():
    op = solution_empty(K, 1.0, 4).operator
    with pytest.raises(DegreeMismatch):
        apply_impedance(op, VshCoeffs.zeros(6))


def test_truncation_stability_of_entries():
    a = solution_pec(K, GEOM, 20).operator
    b = solution_pec(K, GEOM, 28).operator
    assert np.max(np.abs(a.lam[:, 1:21] - b.lam[:, 1:21])) < 1e-12


# ---------------------------------------------------------------------------
# field reconstruction


def test_empty_solution_reproduces_entire_solution():
    L = 8
    sol = solution_empty(K, 1.0, L)
    tr = get_transform(L)
    rng = np.random.default_rng(12)
    amp_te = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    amp_tm = np.zeros_like(amp_te)
    for l in range(1, L + 1):
        for m in range(-l, l + 1):
            amp_te[l, m + L] = rng.standard_normal() + 1j * rng.standard_normal()
            amp_tm[l, m + L] = rng.standard_normal() + 1j * rng.standard_normal()
    e_b, _ = sol.fields_on_shell(amp_te, amp_tm, 1.0, tr)
    boundary = tr.analyze(np.cross(tr.grid.nodes, e_b))
    pts = np.array([[0.2, 0.1, 0.4], [-0.5, 0.3, 0.1], [0.0, 0.6, -0.3]])
    e_in, h_in = sol.eval_fields(boundary, pts)
    # reference: direct shell evaluation at each |point| radius, rotated set
    for i, p in enumerate(pts):
        r = np.linalg.norm(p)
        fac = sol.radial_factors(r)
        from enclosure.mathkit import synth_modes_at_points
        ref = synth_modes_at_points((p / r)[None, :], L,
                                    cP=amp_tm, rfP=fac["E_P"][:, None],
                                    cU=amp_tm, rfU=fac["E_U"][:, None],
                                    cV=amp_te, rfV=fac["E_V"][:, None])[0]
        assert np.max(np.abs(e_in[i] - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_annulus_fields_maxwell_residual():
    L = 10
    sol = solution_pec(K, GEOM, L)
    tr = get_transform(L)
    rng = np.random.default_rng(15)
    c = VshCoeffs.zeros(L)
    for l in range(1, L + 1):
        for m in range(-l, l + 1):
            c.data[:, l, m + L] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h = 1e-6
    pts = np.array([[0.7, 0.1, 0.2], [0.2, -0.6, 0.35]])
    e0, h0 = sol.eval_fields(c, pts)
    for i, p in enumerate(pts):
        cols_e, cols_h = [], []
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            ep, hp = sol.eval_fields(c, (p + dp)[None])
            em, hm = sol.eval_fields(c, (p - dp)[None])
            cols_e.append((ep[0] - em[0]) / (2 * h))
            cols_h.append((hp[0] - hm[0]) / (2 * h))
        curl_e = np.array([cols_e[1][2] - cols_e[2][1],
                           cols_e[2][0] - cols_e[0][2],
                           cols_e[0][1] - cols_e[1][0]])
        curl_h = np.array([cols_h[1][2] - cols_h[2][1],
                           cols_h[2][0] - cols_h[0][2],
                           cols_h[0][1] - cols_h[1][0]])
        scale = max(np.max(np.abs(e0[i])), np.max(np.abs(h0[i])))
        assert np.max(np.abs(curl_e - 1j * K * h0[i])) < 1e-8 * scale * K * 10
        assert np.max(np.abs(curl_h + 1j * K * e0[i])) < 1e-8 * scale * K * 10


def test_pec_boundary_condition_residual():
    L = 10
    sol = solution_pec(K, GEOM, L)
    tr = get_transform(L)
    rng = np.random.default_rng(16)
    amp_te = rng.standard_normal((L + 1, 2 * L + 1)) + 0j
    amp_tm = rng.standard_normal((L + 1, 2 * L + 1)) + 0j
    _, h_b = sol.fields_on_shell(amp_te, amp_tm, GEOM.r_obstacle, tr)
    nu_h = np.cross(tr.grid.nodes, h_b)
    _, h_out = sol.fields_on_shell(amp_te, amp_tm, GEOM.r_domain, tr)
    scale = np.max(np.abs(np.cross(tr.grid.nodes, h_out)))
    assert np.max(np.abs(nu_h)) < 1e-8 * scale


def test_transmission_interface_continuity():
    L = 10
    med = Medium(0.5)
    sol = solution_transmission(K, GEOM, med, L)
    tr = get_transform(L)
    rng = np.random.default_rng(17)
    amp_te = rng.standard_normal((L + 1, 2 * L + 1)) + 0j
    amp_tm = rng.standard_normal((L + 1, 2 * L + 1)) + 0j
    eps = 1e-9
    e_in, h_in = sol.fields_on_shell(amp_te, amp_tm, GEOM.r_obstacle * (1 - eps), tr)
    e_out, h_out = sol.fields_on_shell(amp_te, amp_tm, GEOM.r_obstacle * (1 + eps), tr)
    nodes = tr.grid.nodes
    jump_e = np.cross(nodes, e_in - e_out)
    jump_h = np.cross(nodes, h_in - h_out)
    scale = max(np.max(np.abs(e_out)), np.max(np.abs(h_out)))
    assert np.max(np.abs(jump_e)) < 1e-7 * scale
    assert np.max(np.abs(jump_h)) < 1e-7 * scale


def test_point_out_of_domain():
    sol = solution_pec(K, GEOM, 4)
    c = VshCoeffs.zeros(4)
    with pytest.raises(PointOutOfDomain):
        sol.eval_fields(c, np.array([[1.5, 0.0, 0.0]]))
    with pytest.raises(PointOutOfDomain):
        sol.eval_fields(c, np.array([[0.1, 0.0, 0.0]]))


def test_reciprocity_of_difference_pairing():
    """Bilinear pairing of (Lambda_D - Lambda_0) is 1<->2 symmetric.

    Computed as an actual surface integral on the grid (quadrature path),
    not via coefficient algebra, so it exercises the whole stack.
    """
    L = 8
    tr = get_transform(L)
    grid = tr.grid
    for op in (solution_pec(K, GEOM, L).operator,
               solution_transmission(K, GEOM, Medium(0.5), L).operator):
        rng = np.random.default_rng(21)
        fs = []
        for _ in range(2):
            c = VshCoeffs.zeros(L)
            c.data[:] = rng.standard_normal(c.data.shape) \
                + 1j * rng.standard_normal(c.data.shape)
            fs.append(c)

        def pairing(f1, f2):
            # (Lambda_D - Lambda_0) f2, via the exact difference entries
            g = VshCoeffs.zeros(L)
            g.data[POL_V] = op.diff_empty[TE][:, None] * f2.data[POL_U]
            g.data[POL_U] = op.diff_empty[TM][:, None] * f2.data[POL_V]
            # W_t = g ^ nu: (u, v) -> (v, -u)
            wt = VshCoeffs.zeros(L)
            wt.data[POL_U] = g.data[POL_V]
            wt.data[POL_V] = -g.data[POL_U]
            f1_field = tr.synthesize(f1)
            wt_field = tr.synthesize(wt)
            dens = np.einsum("ni,ni->n", f1_field, wt_field)   # bilinear, no conj
            return op.r_domain**2 * np.sum(grid.weights * dens)

        b12 = pairing(fs[0], fs[1])
        b21 = pairing(fs[1], fs[0])
        assert abs(b12 - b21) < 1e-8 * max(1.0, abs(b12))
