"""Layer potentials on the obstacle sphere: the independent oracle.

Implements the fundamental solution Phi_k (NOTE the negative sign
convention, see :mod:`enclosure.conventions`), the single layer S_k, the
magnetic dipole boundary operator M_k, the exterior jump equation
(-1/2 I + M_k) f = -(nu ^ H0), and radiating exterior fields
H = curl S_k f, E = -(1/ik) curl H.

Everything is diagonalized per (degree, polarization) on the sphere; a
direct-quadrature path for S_k and off-surface limit extrapolation provide
the non-spectral cross checks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .conventions import POL_U, POL_V
from .errors import (CoincidentPoints, NearInteriorEigenvalue, PointInside,
                     TooCloseToSurface)
from .mathkit import (VshCoeffs, riccati_tables, sphere_quadrature,
                      synth_modes_at_points)
from .mathkit.vsh import VshTransform, get_transform

# test hook: flips the sign of the M_k symbols (selftest mutation check)
_MK_SIGN = 1.0


@contextlib.contextmanager
def mk_sign_flip():
    """Context manager that corrupts M_k's sign; used by the selftest."""
    global _MK_SIGN
    _MK_SIGN = -1.0
    try:
        yield
    finally:
        _MK_SIGN = 1.0


@dataclass
class SurfaceDensity:
    """Tangential field on the radius-R obstacle sphere, as VSH coefficients."""

    radius: float
    coeffs: VshCoeffs

    @property
    def L(self) -> int:
        return self.coeffs.L


def fundamental(k: float, x, y) -> complex:
    """Phi_k(x, y) = -exp(ik|x-y|) / (4 pi |x-y|)."""
    d = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    if d < 1e-14:
        raise CoincidentPoints("fundamental solution evaluated on the diagonal")
    return -np.exp(1j * k * d) / (4.0 * math.pi * d)


# ---------------------------------------------------------------------------
# single layer


def _scalar_layer_factors(k: float, R: float, lmax: int, radii: np.ndarray):
    """s_l(r) = -i k R^2 j_l(k r_<) h1_l(k r_>) for l = 0..lmax, per radius."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    b = k * R
    psi_b, _, chi_b, _ = riccati_tables(lmax, b)
    jb = psi_b / b
    hb = (psi_b + 1j * chi_b) / b
    psi_r, _, chi_r, _ = riccati_tables(lmax, k * radii)
    jr = psi_r / (k * radii)
    hr = (psi_r + 1j * chi_r) / (k * radii)
    inside = radii <= R
    out = np.where(inside, jr * hb[:, None], jb[:, None] * hr)
    return -1j * k * R * R * out


def single_layer_apply(k: float, density: SurfaceDensity, points,
                       method: str = "spectral",
                       quad_degree: int | None = None) -> np.ndarray:
    """Componentwise single layer of a tangential density at points.

    'spectral' diagonalizes per degree (valid at any r != R); 'quadrature'
    sums the kernel over a surface grid and requires the points to stay
    at least 1e-6 R away from the surface.
    """
    pts = np.asarray(points, dtype=float)
    radii = np.linalg.norm(pts, axis=1)
    R, L = density.radius, density.L

    if method == "quadrature":
        if np.any(np.abs(radii - R) < 1e-6 * R):
            raise TooCloseToSurface("quadrature path needs |r - R| >= 1e-6 R")
        deg = quad_degree or max(2 * L, 16)
        grid = sphere_quadrature(deg)
        tr = get_transform(deg)
        dat = np.zeros((2, deg + 1, 2 * deg + 1), dtype=complex)
        dat[:, :L + 1, deg - L:deg + L + 1] = density.coeffs.data
        fvals = tr.synthesize(VshCoeffs(deg, dat))
        ys = R * grid.nodes
        out = np.empty((len(pts), 3), dtype=complex)
        for i, x in enumerate(pts):
            d = np.linalg.norm(ys - x[None, :], axis=1)
            kern = -np.exp(1j * k * d) / (4.0 * math.pi * d)
            out[i] = (grid.weights * R * R * kern) @ fvals
        return out

    if method != "spectral":
        raise ValueError(f"unknown method {method!r}")

    s = _scalar_layer_factors(k, R, L + 1, radii)     # (L+2, N)
    ll = np.arange(L + 1, dtype=float)
    sq = np.sqrt(ll * (ll + 1.0))
    # S[V_lm] = s_l V;  S[U_lm] couples to P and U through degrees l -/+ 1
    den = 2.0 * ll + 1.0
    gP = np.zeros_like(s[:L + 1])
    gU = np.zeros_like(s[:L + 1])
    gP[1:] = sq[1:, None] * (s[0:L] - s[2:L + 2]) / den[1:, None]
    gU[1:] = ((ll[1:, None] + 1.0) * s[0:L] + ll[1:, None] * s[2:L + 2]) / den[1:, None]
    units = pts / radii[:, None]
    return synth_modes_at_points(
        units, L,
        cP=density.coeffs.data[POL_U], rfP=gP,
        cU=density.coeffs.data[POL_U], rfU=gU,
        cV=density.coeffs.data[POL_V], rfV=s[:L + 1])


def scalar_single_layer(k: float, R: float, carr: np.ndarray, points) -> np.ndarray:
    """Scalar single layer of a Y_lm expansion (used for Div consistency)."""
    pts = np.asarray(points, dtype=float)
    radii = np.linalg.norm(pts, axis=1)
    L = carr.shape[0] - 1
    s = _scalar_layer_factors(k, R, L, radii)
    vals = synth_modes_at_points(pts / radii[:, None], L, cP=carr, rfP=s)
    # scalar pattern was synthesized onto the radial vector; project back
    return np.einsum("ni,ni->n", vals, pts / radii[:, None])


# ---------------------------------------------------------------------------
# boundary operator M_k and the jump equation


def mk_symbols(k: float, R: float, L: int):
    """Diagonal symbols of M_k: (m_U, m_V) per degree, paper-sign kernel.

    m_U = -(i/2)(psi xi' + psi' xi)(kR) on grad-type densities,
    m_V = +(i/2)(psi xi' + psi' xi)(kR) on curl-type densities.
    """
    b = k * R
    psi, dpsi, chi, dchi = riccati_tables(L, b)
    xi = psi + 1j * chi
    dxi = dpsi + 1j * dchi
    core = 0.5j * (psi * dxi + dpsi * xi)
    return -_MK_SIGN * core, _MK_SIGN * core


def mk_apply(k: float, density: SurfaceDensity) -> SurfaceDensity:
    """Principal-value boundary operator nu ^ p.v. curl S_k."""
    m_u, m_v = mk_symbols(k, density.radius, density.L)
    out = density.coeffs.copy()
    out.data[POL_U] *= m_u[:, None]
    out.data[POL_V] *= m_v[:, None]
    return SurfaceDensity(density.radius, out)


def solve_exterior(k: float, r_obstacle: float, rhs: SurfaceDensity,
                   guard: float = 1e-10) -> SurfaceDensity:
    """Solve (-1/2 I + M_k) f = rhs per (l, pol).

    The diagonal entries are -i psi' xi (grad-type) and +i psi xi'
    (curl-type) at kR; their zeros are exactly the interior Maxwell
    eigenvalues of the obstacle ball, guarded here.
    """
    L = rhs.L
    m_u, m_v = mk_symbols(k, r_obstacle, L)
    den_u = -0.5 + m_u
    den_v = -0.5 + m_v
    for name, den, m in (("grad", den_u, m_u), ("curl", den_v, m_v)):
        bad = np.abs(den[1:]) < guard * (0.5 + np.abs(m[1:]))
        if np.any(bad):
            l_bad = int(np.nonzero(bad)[0][0]) + 1
            raise NearInteriorEigenvalue(
                f"jump equation near-singular at l={l_bad} ({name}-type)")
    out = rhs.coeffs.copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        out.data[POL_U] = np.where(den_u[:, None] != 0,
                                   rhs.coeffs.data[POL_U] / den_u[:, None], 0.0)
        out.data[POL_V] = np.where(den_v[:, None] != 0,
                                   rhs.coeffs.data[POL_V] / den_v[:, None], 0.0)
    out.data[:, 0, :] = 0.0
    return SurfaceDensity(rhs.radius, out)


# ---------------------------------------------------------------------------
# field evaluation from a density


def _field_amplitudes(k: float, R: float, L: int):
    """Multipole amplitudes of H^ex = curl S_k f per unit density coefficient.

    U-density -> beta_M M^(xi);  V-density -> beta_N N^(xi).
    """
    b = k * R
    psi, dpsi, _, _ = riccati_tables(L, b)
    ll = np.arange(L + 1, dtype=float)
    sq = np.sqrt(ll * (ll + 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        beta_m = np.where(sq > 0, -1j * b * dpsi / sq, 0.0)
        beta_n = np.where(sq > 0, 1j * b * psi / sq, 0.0)
    return beta_m.astype(complex), beta_n.astype(complex)


def _interior_amplitudes(k: float, R: float, L: int):
    b = k * R
    psi, dpsi, chi, dchi = riccati_tables(L, b)
    xi = psi + 1j * chi
    dxi = dpsi + 1j * dchi
    ll = np.arange(L + 1, dtype=float)
    sq = np.sqrt(ll * (ll + 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha_m = np.where(sq > 0, -1j * b * dxi / sq, 0.0)
        alpha_n = np.where(sq > 0, 1j * b * xi / sq, 0.0)
    return alpha_m.astype(complex), alpha_n.astype(complex)


def _eval_curl_s_fields(k: float, f: SurfaceDensity, points, side: str):
    """(H, E) of the curl-of-single-layer representation off the surface."""
    pts = np.asarray(points, dtype=float)
    radii = np.linalg.norm(pts, axis=1)
    R, L = f.radius, f.L
    z = k * radii
    psi_r, dpsi_r, chi_r, dchi_r = riccati_tables(L, z)
    if side == "exterior":
        zf, dzf = psi_r + 1j * chi_r, dpsi_r + 1j * dchi_r   # outgoing xi(kr)
        amp_m, amp_n = _field_amplitudes(k, R, L)
    else:
        zf, dzf = psi_r, dpsi_r                              # regular psi(kr)
        amp_m, amp_n = _interior_amplitudes(k, R, L)

    ll = np.arange(L + 1, dtype=float).reshape(-1, 1)
    lhat = ll * (ll + 1.0)
    sq = np.sqrt(lhat)
    # M^(z) = -sq z_l(kr) V ; N^(z) = sq [ sq z_l/(kr)^2 P + z'_l(kr)/(kr) U ]
    m_v = -sq * zf / z
    n_p = lhat * zf / z**2
    n_u = sq * dzf / z
    cu = f.coeffs.data[POL_U]
    cv = f.coeffs.data[POL_V]
    units = pts / radii[:, None]
    # H = amp_M(cu) M + amp_N(cv) N
    h = synth_modes_at_points(units, L,
                              cP=cv * amp_n[:, None], rfP=n_p,
                              cU=cv * amp_n[:, None], rfU=n_u,
                              cV=cu * amp_m[:, None], rfV=m_v)
    # E = -(1/ik) curl H = i [ amp_M(cu) N + amp_N(cv) M ]
    e = synth_modes_at_points(units, L,
                              cP=1j * cu * amp_m[:, None], rfP=n_p,
                              cU=1j * cu * amp_m[:, None], rfU=n_u,
                              cV=1j * cv * amp_n[:, None], rfV=m_v)
    return h, e


def eval_exterior_fields(k: float, f: SurfaceDensity, points):
    """Radiating (H^ex, E^ex) = (curl S_k f, -(1/ik) curl H^ex) outside."""
    pts = np.asarray(points, dtype=float)
    radii = np.linalg.norm(pts, axis=1)
    if np.any(radii <= f.radius * (1.0 + 1e-12)):
        raise PointInside("exterior evaluation requires r > R")
    return _eval_curl_s_fields(k, f, pts, "exterior")


def eval_interior_fields(k: float, f: SurfaceDensity, points):
    """(H, E) of the same representation inside the sphere (jump oracle)."""
    pts = np.asarray(points, dtype=float)
    radii = np.linalg.norm(pts, axis=1)
    if np.any(radii >= f.radius * (1.0 - 1e-12)):
        raise PointInside("interior evaluation requires r < R")
    return _eval_curl_s_fields(k, f, pts, "interior")


def trace_tangential(field_samples: np.ndarray, transform: VshTransform) -> VshCoeffs:
    """nu ^ field analyzed on the transform grid (unit-sphere directions)."""
    nodes = transform.grid.nodes
    return transform.analyze(np.cross(nodes, field_samples))


def nu_wedge_h_limit(k: float, f: SurfaceDensity, side: str,
                     epsilons=(1e-2, 1e-3, 1e-4)) -> VshCoeffs:
    """Richardson limit of nu ^ curl S_k f from off-surface evaluations.

    Lagrange-extrapolates the trace coefficients at r = R (1 +/- eps) to
    eps -> 0; this is the operational oracle for the +-1/2 jump relations.
    """
    tr = get_transform(f.L)
    grid = tr.grid
    signs = {"exterior": 1.0, "interior": -1.0}[side]
    evalf = eval_exterior_fields if side == "exterior" else eval_interior_fields
    eps = np.asarray(epsilons, dtype=float)
    traces = []
    for e in eps:
        r = f.radius * (1.0 + signs * e)
        h, _ = evalf(k, f, r * grid.nodes)
        traces.append(trace_tangential(h, tr).data)
    # Lagrange extrapolation to eps = 0
    out = np.zeros_like(traces[0])
    for i, ti in enumerate(traces):
        w = 1.0
        for j, ej in enumerate(eps):
            if j != i:
                w *= ej / (ej - eps[i])
        out += w * ti
    return VshCoeffs(f.L, out)


# ---------------------------------------------------------------------------
# surface divergence


def surface_divergence(density: SurfaceDensity) -> np.ndarray:
    """Scalar Y_lm coefficients of Div on the radius-R sphere.

    Div U_lm = -sqrt(l(l+1))/R Y_lm; curl-type densities are
    surface-divergence free.
    """
    L = density.L
    ll = np.arange(L + 1, dtype=float)
    fac = -np.sqrt(ll * (ll + 1.0)) / density.radius
    return fac[:, None] * density.coeffs.data[POL_U]


__all__ = ["SurfaceDensity", "fundamental", "single_layer_apply",
           "scalar_single_layer", "mk_symbols", "mk_apply", "solve_exterior",
           "eval_exterior_fields", "eval_interior_fields", "nu_wedge_h_limit",
           "surface_divergence", "mk_sign_flip", "trace_tangential"]
