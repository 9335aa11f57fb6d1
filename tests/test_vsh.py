import numpy as np
import pytest
from scipy.special import sph_harm_y

from enclosure.conventions import POL_U, POL_V
from enclosure.errors import NotTangential
from enclosure.mathkit import (VshCoeffs, get_transform, sphere_quadrature,
                               synth_modes_at_points)


def random_coeffs(L, seed=0):
    rng = np.random.default_rng(seed)
    c = VshCoeffs.zeros(L)
    for l in range(1, L + 1):
        for m in range(-l, l + 1):
            c.data[:, l, m + L] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return c


def reference_analyze(tr, f_theta, f_phi):
    """Per-order loop over m = -L..L: the seminaive analysis, one matvec
    per order and table."""
    L, g = tr.L, tr.grid

    def modes(v):
        return np.fft.fft(v.reshape(g.n_theta, g.n_phi), axis=1) * (2.0 * np.pi / g.n_phi)

    Ft, Fp = modes(f_theta), modes(f_phi)
    w = g.gl_weights
    data = np.zeros((2, L + 1, 2 * L + 1), dtype=complex)
    for m in range(-L, L + 1):
        am = abs(m)
        gt = w * Ft[:, m % g.n_phi]
        gp = w * Fp[:, m % g.n_phi]
        lmin = max(1, am)
        D = tr.D3[lmin:, am, :]
        S = tr.S3[lmin:, am, :]
        sgn = -1.0 if (m < 0 and am % 2) else 1.0
        ssgn = sgn if m >= 0 else -sgn
        inv = tr.inv_sqrt_ll[lmin:]
        data[POL_U, lmin:, m + L] = inv * (sgn * (D @ gt) - 1j * ssgn * (S @ gp))
        data[POL_V, lmin:, m + L] = inv * (1j * ssgn * (S @ gt) + sgn * (D @ gp))
    return data


def reference_synthesize(tr, coeffs):
    """Per-order loop over m = -L..L: the seminaive synthesis."""
    L, g = tr.L, tr.grid
    Gt = np.zeros((g.n_theta, g.n_phi), dtype=complex)
    Gp = np.zeros_like(Gt)
    for m in range(-L, L + 1):
        am = abs(m)
        lmin = max(1, am)
        cu = coeffs.data[POL_U, lmin:, m + L] * tr.inv_sqrt_ll[lmin:]
        cv = coeffs.data[POL_V, lmin:, m + L] * tr.inv_sqrt_ll[lmin:]
        D = tr.D3[lmin:, am, :]
        S = tr.S3[lmin:, am, :]
        sgn = -1.0 if (m < 0 and am % 2) else 1.0
        ssgn = sgn if m >= 0 else -sgn
        col = m % g.n_phi
        Gt[:, col] += sgn * (cu @ D) - 1j * ssgn * (cv @ S)
        Gp[:, col] += 1j * ssgn * (cu @ S) + sgn * (cv @ D)
    return ((np.fft.ifft(Gt, axis=1) * g.n_phi).reshape(-1),
            (np.fft.ifft(Gp, axis=1) * g.n_phi).reshape(-1))


@pytest.mark.parametrize("L", [1, 2, 7, 24])
def test_batched_transforms_match_per_order_loops(L):
    tr = get_transform(L)
    rng = np.random.default_rng(L)
    n = tr.grid.n_nodes
    ft, fp = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    ref = reference_analyze(tr, ft, fp)
    got = tr.analyze_components(ft, fp).data
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    c = random_coeffs(L, seed=L + 1)
    for got, ref in zip(tr.synthesize_components(c), reference_synthesize(tr, c)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("L", [1, 8, 24])
def test_transform_tables_hold_three_cubes(L):
    """P, D and S take 3 (L+1)^3 doubles in all: D3 and S3 are views."""
    tr = get_transform(L)
    roots = {}
    for value in vars(tr).values():
        if isinstance(value, np.ndarray) and value.ndim == 3:
            while value.base is not None:
                value = value.base
            roots[id(value)] = value
    assert all(r.dtype == np.float64 for r in roots.values())
    assert sum(r.nbytes for r in roots.values()) == 3 * (L + 1) ** 3 * 8


def test_single_mode_roundtrip():
    L = 6
    tr = get_transform(L)
    c = VshCoeffs.single_mode(L, 4, -2, POL_V, 2.0 - 1.0j)
    f = tr.synthesize(c)
    back = tr.analyze(f)
    assert abs(back.data[POL_V, 4, -2 + L] - (2.0 - 1.0j)) < 1e-12
    back.data[POL_V, 4, -2 + L] = 0.0
    assert np.max(np.abs(back.data)) < 1e-12


def test_bandlimited_roundtrip():
    L = 10
    tr = get_transform(L)
    c = random_coeffs(L)
    f = tr.synthesize(c)
    back = tr.analyze(f)
    num = np.linalg.norm(tr.synthesize(back) - f)
    assert num / np.linalg.norm(f) < 1e-10
    assert np.max(np.abs(back.data - c.data)) < 1e-10


def test_zero_field():
    L = 5
    tr = get_transform(L)
    c = tr.analyze(np.zeros((tr.grid.n_nodes, 3), dtype=complex))
    assert np.all(c.data == 0)
    assert c.tail_fraction() == 0.0


def test_not_tangential_raises():
    L = 5
    tr = get_transform(L)
    f = tr.grid.nodes.astype(complex)    # purely radial field
    with pytest.raises(NotTangential):
        tr.analyze(f)


def test_parseval_against_quadrature():
    L = 9
    tr = get_transform(L)
    grid = tr.grid
    c = random_coeffs(L, seed=3)
    f = tr.synthesize(c)
    quad = float(np.sum(grid.weights * np.einsum("ni,ni->n", f, f.conj()).real))
    assert abs(quad - c.total_energy()) < 1e-10 * c.total_energy()


def test_u_basis_matches_fd_surface_gradient():
    """Independent oracle: U_lm = grad_S Y / sqrt(l(l+1)) via scipy + FD."""
    L, l0, m0 = 8, 5, -3
    grid = sphere_quadrature(L)
    tr = get_transform(L)
    f = tr.synthesize(VshCoeffs.single_mode(L, l0, m0, POL_U))
    th = np.arccos(np.clip(grid.nodes[:, 2], -1, 1))
    ph = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    h = 1e-6
    gt = (sph_harm_y(l0, m0, th + h, ph) - sph_harm_y(l0, m0, th - h, ph)) / (2 * h)
    gp = (sph_harm_y(l0, m0, th, ph + h) - sph_harm_y(l0, m0, th, ph - h)) / (2 * h) / np.sin(th)
    ref = (gt[:, None] * grid.theta_hat + gp[:, None] * grid.phi_hat) / np.sqrt(l0 * (l0 + 1))
    assert np.max(np.abs(f - ref)) < 1e-9


def test_v_is_rhat_cross_u():
    L, l0, m0 = 7, 6, 4
    grid = sphere_quadrature(L)
    tr = get_transform(L)
    u = tr.synthesize(VshCoeffs.single_mode(L, l0, m0, POL_U))
    v = tr.synthesize(VshCoeffs.single_mode(L, l0, m0, POL_V))
    assert np.max(np.abs(v - np.cross(grid.nodes, u))) < 1e-12


def test_scattered_point_synthesis_matches_grid():
    L = 8
    tr = get_transform(L)
    c = random_coeffs(L, seed=5)
    f_grid = tr.synthesize(c)
    f_pts = synth_modes_at_points(tr.grid.nodes, L,
                                  cU=c.data[POL_U], cV=c.data[POL_V])
    assert np.max(np.abs(f_grid - f_pts)) < 1e-12 * np.max(np.abs(f_grid))

    # the radial (P) pattern and per-degree radial factors, one column per
    # degree or one per point
    rng = np.random.default_rng(6)
    cP = rng.standard_normal((L + 1, 2 * L + 1)) + 1j * rng.standard_normal((L + 1, 2 * L + 1))
    fP, fU, fV = rng.standard_normal((3, L + 1)) + 1j * rng.standard_normal((3, L + 1))
    ref = tr.synth_vector(cP * fP[:, None],
                          VshCoeffs(L, np.stack([c.data[POL_U] * fU[:, None],
                                                 c.data[POL_V] * fV[:, None]])))
    n = tr.grid.n_nodes
    for shape in (1, n):
        f_pts = synth_modes_at_points(
            tr.grid.nodes, L, cP=cP, cU=c.data[POL_U], cV=c.data[POL_V],
            rfP=np.repeat(fP[:, None], shape, axis=1),
            rfU=np.repeat(fU[:, None], shape, axis=1),
            rfV=np.repeat(fV[:, None], shape, axis=1))
        assert np.max(np.abs(ref - f_pts)) < 1e-12 * np.max(np.abs(ref))


def test_scalar_transform_roundtrip():
    L = 9
    tr = get_transform(L)
    rng = np.random.default_rng(8)
    carr = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    for l in range(0, L + 1):
        for m in range(-l, l + 1):
            carr[l, m + L] = rng.standard_normal() + 1j * rng.standard_normal()
    # the grid integrates degree 2L exactly, so the weighted adjoint of the
    # synthesis inverts it: Y_lm-coefficient by quadrature against each Y_lm
    lms = [(l, m) for l in range(L + 1) for m in range(-l, l + 1)]
    ylm = np.empty((len(lms), tr.grid.n_nodes), dtype=complex)
    for i, (l, m) in enumerate(lms):
        unit = np.zeros_like(carr)
        unit[l, m + L] = 1.0
        ylm[i] = tr.synth_scalar(unit)
    back = (ylm.conj() * tr.grid.weights) @ tr.synth_scalar(carr)
    assert np.max(np.abs(back - [carr[l, m + L] for l, m in lms])) < 1e-11


def test_tail_fraction():
    L = 10
    c = VshCoeffs.zeros(L)
    c.data[POL_U, 2, 0 + L] = 1.0
    assert c.tail_fraction() == 0.0
    c.data[POL_V, 10, 0 + L] = 1.0
    assert abs(c.tail_fraction() - 0.5) < 1e-15


def test_ln_scale_rides_along():
    L = 4
    c = VshCoeffs.zeros(L, ln_scale=12.5)
    assert c.copy().ln_scale == 12.5
