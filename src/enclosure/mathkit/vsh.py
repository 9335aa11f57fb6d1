"""Vector spherical harmonic transforms on product grids.

Conventions are fixed in :mod:`enclosure.conventions`: orthonormal complex
Y_lm with Condon-Shortley phase, U_lm = grad_S Y / sqrt(l(l+1)),
V_lm = r^ x U_lm.  Coefficients are stored densely as data[pol, l, m+L]
with pol 0 = grad-type (U) and pol 1 = curl-type (V).

The transform is seminaive: an FFT in azimuth followed by the Legendre
sums of all orders as one batched product against per-order tables,
O(L^3) per field, exact for band-limited input on the matched quadrature
grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..conventions import POL_U, POL_V
from ..errors import NotTangential
from .spheregrid import SphereGrid, sphere_quadrature

_INV_SQRT4PI = 0.5 / math.sqrt(math.pi)


@dataclass
class VshCoeffs:
    """Tangential VSH coefficients up to degree L, 1 <= l <= L, |m| <= l.

    ln_scale is a shared natural-log factor: the represented field is
    exp(ln_scale) times the field synthesized from `data`.  It rides along
    untouched through linear operations.
    """

    L: int
    data: np.ndarray            # (2, L+1, 2L+1) complex
    ln_scale: float = 0.0

    @staticmethod
    def zeros(L: int, ln_scale: float = 0.0) -> "VshCoeffs":
        return VshCoeffs(L, np.zeros((2, L + 1, 2 * L + 1), dtype=complex), ln_scale)

    @staticmethod
    def single_mode(L: int, l: int, m: int, pol: int, amplitude: complex = 1.0) -> "VshCoeffs":
        c = VshCoeffs.zeros(L)
        if not (1 <= l <= L and abs(m) <= l):
            raise ValueError("mode (l, m) outside the truncation")
        c.data[pol, l, m + L] = amplitude
        return c

    def copy(self) -> "VshCoeffs":
        return VshCoeffs(self.L, self.data.copy(), self.ln_scale)

    def degree_energies(self) -> np.ndarray:
        """Sum of |coefficient|^2 over m, per (pol, l); mantissa scale."""
        return np.sum(np.abs(self.data) ** 2, axis=2)

    def total_energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))

    def tail_fraction(self, frac: float = 0.1) -> float:
        """Fraction of coefficient energy in the top `frac` of degrees."""
        return tail_fraction(self.degree_energies(), frac)


def tail_fraction(energies: np.ndarray, frac: float = 0.1) -> float:
    """Fraction of the (2, L+1) degree energies in the top `frac` of degrees."""
    per_l = np.sum(energies, axis=0)
    total = float(per_l.sum())
    if total == 0.0:
        return 0.0
    l0 = max(1, int(math.ceil((1.0 - frac) * (len(per_l) - 1))))
    return float(per_l[l0:].sum()) / total


def _alp_tables(L: int, ct: np.ndarray, st: np.ndarray):
    """Dense normalized-ALP tables in per-order layout.

    Returns P of shape (L+1, L+1, n), index [m, l, node], and DS of shape
    (L+1, 2(L+1), n), index [m, row, node]: rows 0..L hold dP/dtheta of
    degree l and rows L+1..2L+1 hold m P / sin(theta) of degree l.  Entries
    with m > l are zero.  Includes the Condon-Shortley phase;
    Y_lm = P[m, l] * exp(i m phi) for m >= 0.
    """
    n = len(ct)
    P = np.zeros((L + 1, L + 1, n))
    P[0, 0] = _INV_SQRT4PI
    for m in range(1, L + 1):
        P[m, m] = -math.sqrt((2 * m + 1.0) / (2 * m)) * st * P[m - 1, m - 1]
    for m in range(0, L):
        P[m, m + 1] = math.sqrt(2 * m + 3.0) * ct * P[m, m]
    for m in range(0, L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                          / ((2.0 * l - 3.0) * (l * l - m * m)))
            P[m, l] = a * ct * P[m, l - 1] - b * P[m, l - 2]

    # only rows l >= m are written: the zero triangle stays untouched, so
    # its pages are never made resident
    cot = ct / st
    DS = np.zeros((L + 1, 2 * (L + 1), n))
    for m in range(0, L + 1):
        D = DS[m, m:L + 1]
        D[:] = m * cot * P[m, m:]
        if m < L:
            ll = np.arange(m, L + 1, dtype=float)
            D += np.sqrt((ll - m) * (ll + m + 1.0))[:, None] * P[m + 1, m:]
        if m:
            DS[m, L + 1 + m:] = m * P[m, m:] / st
    return P, DS


def _inv_sqrt_ll(L: int) -> np.ndarray:
    """1 / sqrt(l (l+1)) for l = 0..L, 0 at l = 0 (no tangential l = 0 mode)."""
    ll = np.arange(L + 1, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(ll > 0, 1.0 / np.sqrt(ll * (ll + 1.0)), 0.0)


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a contiguous complex array, summed by einsum.

    np.linalg.norm calls a BLAS dot, which wakes OpenBLAS's thread pool on
    long vectors; its idle threads then spin between samples.
    """
    v = a.view(float).ravel()
    return math.sqrt(np.einsum("i,i->", v, v))


def _table_times(table: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """table @ cols per order, a real table against complex columns.

    The float view of complex columns interleaves real and imaginary
    parts, so one real product gives the complex result's float view.
    """
    return np.matmul(table, np.ascontiguousarray(cols).view(float)).view(complex)


def _times_table(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """rows @ table per order, complex rows against a real table."""
    k = rows.shape[-2]
    prod = np.matmul(np.concatenate([rows.real, rows.imag], axis=-2), table)
    return prod[..., :k, :] + 1j * prod[..., k:, :]


class VshTransform:
    """Forward/inverse scalar and tangential-vector transforms on a grid.

    The Legendre step of every transform is one batched product over the
    orders m = 0..L against the per-order tables; orders +m and -m share
    the |m| table.  D3 and S3 are [l, m, node] views of the DS table.
    """

    def __init__(self, grid: SphereGrid):
        self.grid = grid
        L = self.L = grid.max_degree
        st = np.sqrt(1.0 - grid.cos_theta**2)
        self.P, self.DS = _alp_tables(L, grid.cos_theta, st)
        self.D3 = self.DS[:, :L + 1].transpose(1, 0, 2)
        self.S3 = self.DS[:, L + 1:].transpose(1, 0, 2)
        self.inv_sqrt_ll = _inv_sqrt_ll(L)
        # Condon-Shortley factor (-1)^m of order -m against order +m
        self.neg_sign = np.where(np.arange(L + 1) % 2, -1.0, 1.0)

    # ---- azimuthal step ----

    def _fft_modes(self, values: np.ndarray) -> np.ndarray:
        g = self.grid
        return np.fft.fft(values.reshape(g.n_theta, g.n_phi), axis=1) * (2.0 * np.pi / g.n_phi)

    def _ifft_modes(self, modes: np.ndarray) -> np.ndarray:
        g = self.grid
        return (np.fft.ifft(modes, axis=1) * g.n_phi).reshape(-1)

    def _order_columns(self, *modes: np.ndarray) -> np.ndarray:
        """Weighted azimuthal modes of each input at +m, then at -m.

        Shape (L+1, n_theta, 2 len(modes)), index [m, theta node, column].
        """
        m = np.arange(self.L + 1)
        w = self.grid.gl_weights
        cols = [F[:, m].T * w for F in modes] + [F[:, -m].T * w for F in modes]
        return np.stack(cols, axis=-1)

    def _dense(self, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
        """(L+1, 2L+1) [l, m+L] array from [|m|, l] rows at +m and -m."""
        L = self.L
        out = np.empty((L + 1, 2 * L + 1), dtype=complex)
        out[:, L:] = pos.T
        out[:, :L] = neg[:0:-1].T
        return out

    def _azimuthal(self, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
        """Azimuthal mode array from [|m|, node] rows at +m and -m."""
        g, L = self.grid, self.L
        G = np.zeros((g.n_theta, g.n_phi), dtype=complex)
        G[:, :L + 1] = pos.T
        G[:, g.n_phi - L:] = neg[:0:-1].T
        return G

    # ---- tangential vector transform ----

    def analyze(self, samples: np.ndarray, tangent_tol: float = 1e-10) -> VshCoeffs:
        """Expand a tangential Cartesian field sampled on the grid.

        Raises NotTangential when the radial leakage exceeds tangent_tol
        relative to the field norm.
        """
        f = np.ascontiguousarray(samples, dtype=complex)
        g = self.grid

        def along(basis):
            return f[:, 0] * basis[:, 0] + f[:, 1] * basis[:, 1] + f[:, 2] * basis[:, 2]

        fr = along(g.r_hat)
        norm = _norm(f)
        if norm > 0.0 and _norm(fr) > tangent_tol * norm:
            raise NotTangential(
                f"radial leakage {_norm(fr) / norm:.3e} exceeds {tangent_tol:.1e}")
        return self.analyze_components(along(g.theta_hat), along(g.phi_hat))

    def analyze_components(self, f_theta: np.ndarray, f_phi: np.ndarray) -> VshCoeffs:
        L = self.L
        cols = self._order_columns(self._fft_modes(f_theta), self._fft_modes(f_phi))
        prod = _table_times(self.DS, cols)          # (L+1, 2(L+1), 4)
        # columns: F_theta, F_phi at +m, then F_theta, F_phi at -m
        Dg, Sg = prod[:, :L + 1], prod[:, L + 1:]
        inv = self.inv_sqrt_ll
        sgn = self.neg_sign[:, None]
        data = np.empty((2, L + 1, 2 * L + 1), dtype=complex)
        data[POL_U] = self._dense(inv * (Dg[..., 0] - 1j * Sg[..., 1]),
                                  inv * sgn * (Dg[..., 2] + 1j * Sg[..., 3]))
        data[POL_V] = self._dense(inv * (Dg[..., 1] + 1j * Sg[..., 0]),
                                  inv * sgn * (Dg[..., 3] - 1j * Sg[..., 2]))
        return VshCoeffs(L, data)

    def synthesize(self, coeffs: VshCoeffs) -> np.ndarray:
        """Cartesian samples of the tangential field on the grid nodes.

        The shared ln_scale is NOT applied; callers carry it separately.
        """
        ft, fp = self.synthesize_components(coeffs)
        g = self.grid
        return ft[:, None] * g.theta_hat + fp[:, None] * g.phi_hat

    def synthesize_components(self, coeffs: VshCoeffs):
        L = self.L
        if coeffs.L != L:
            raise ValueError("coefficient degree does not match the grid")
        c = coeffs.data * self.inv_sqrt_ll[:, None]
        # [|m|, l] coefficients at +m and at -m (the -0 row repeats m = 0)
        cu, cv = c[POL_U, :, L:].T, c[POL_V, :, L:].T
        cu_n, cv_n = c[POL_U, :, L::-1].T, c[POL_V, :, L::-1].T
        # a row [a | b] against [D; S] gives a @ D + b @ S
        rows = np.stack([
            np.concatenate([cu, -1j * cv], axis=1),        # G_theta at +m
            np.concatenate([cv, 1j * cu], axis=1),         # G_phi at +m
            np.concatenate([cu_n, 1j * cv_n], axis=1),     # G_theta at -m
            np.concatenate([cv_n, -1j * cu_n], axis=1),    # G_phi at -m
        ], axis=1)
        G = _times_table(rows, self.DS)                    # (L+1, 4, n_theta)
        sgn = self.neg_sign[:, None]
        return (self._ifft_modes(self._azimuthal(G[:, 0], sgn * G[:, 2])),
                self._ifft_modes(self._azimuthal(G[:, 1], sgn * G[:, 3])))

    # ---- scalar transform (radial components, surface divergences) ----

    def analyze_scalar(self, values: np.ndarray) -> np.ndarray:
        """Scalar Y_lm coefficients, shape (L+1, 2L+1)."""
        F = self._fft_modes(np.asarray(values, dtype=complex))
        prod = _table_times(self.P, self._order_columns(F))   # (L+1, L+1, 2)
        return self._dense(prod[..., 0], self.neg_sign[:, None] * prod[..., 1])

    def synth_scalar(self, carr: np.ndarray) -> np.ndarray:
        L = self.L
        rows = np.stack([carr[:, L:].T, carr[:, L::-1].T], axis=1)
        G = _times_table(rows, self.P)                          # (L+1, 2, n_theta)
        return self._ifft_modes(
            self._azimuthal(G[:, 0], self.neg_sign[:, None] * G[:, 1]))

    def synth_vector(self, c_radial: np.ndarray | None, coeffs: VshCoeffs | None) -> np.ndarray:
        """Full vector field: radial Y_lm part plus tangential part."""
        g = self.grid
        out = np.zeros((g.n_nodes, 3), dtype=complex)
        if coeffs is not None:
            out += self.synthesize(coeffs)
        if c_radial is not None:
            out += self.synth_scalar(c_radial)[:, None] * g.r_hat
        return out


@functools.lru_cache(maxsize=8)
def get_transform(L: int) -> VshTransform:
    """Memoized transform on the canonical degree-L grid."""
    return VshTransform(sphere_quadrature(L))


def synth_modes_at_points(points_unit: np.ndarray, L: int,
                          cP=None, cU=None, cV=None,
                          rfP=None, rfU=None, rfV=None) -> np.ndarray:
    """Evaluate sum_lm of radial-factored VSH modes at scattered points.

    points_unit: (N, 3) unit vectors.  cX: coefficient arrays (L+1, 2L+1)
    for the P/U/V patterns; rfX: matching radial factors (L+1, N) or
    (L+1, 1), None for a pure angular evaluation.  The modes come from the
    `_alp_tables` of the points, so memory is O(L^2 N); shell-structured
    evaluations should go through VshTransform.
    """
    pts = np.asarray(points_unit, dtype=float)
    x, y, z = pts.T
    st = np.maximum(np.hypot(x, y), 1e-13)   # polar nudge; basis is coordinate-singular there
    phi = np.arctan2(y, x)
    P, DS = _alp_tables(L, z, st)
    DS = DS.reshape(L + 1, 2, L + 1, len(pts))          # [m, D|S, l, node]
    inv = _inv_sqrt_ll(L)[:, None]
    eim = np.exp(1j * np.outer(np.arange(L + 1), phi))   # e^{i m phi}, m >= 0
    # Condon-Shortley factor (-1)^m of order -m; zero at m = 0, counted once
    neg = np.where(np.arange(L + 1) % 2, -1.0, 1.0)
    neg[0] = 0.0

    def orders(table, c, rf, spec):
        """Per-order sums over l at +m and at -m, [sign, m, ...]."""
        cc = np.stack([c[:, L:].T, c[:, L::-1].T])      # [sign, m, l]
        rf = np.ones((L + 1, 1)) if rf is None else rf
        return np.einsum(spec, cc, rf, table)

    def even(a):   # sum over orders of a_+m e^{imphi} + (-1)^m a_-m e^{-imphi}
        return np.sum(a[0] * eim + neg[:, None] * a[1] * eim.conj(), axis=0)

    def odd(a):    # the same with the -m orders negated
        return np.sum(a[0] * eim - neg[:, None] * a[1] * eim.conj(), axis=0)

    fr = fth = fph = np.zeros(len(pts), dtype=complex)
    if cP is not None:
        fr = even(orders(P, cP, rfP, "sml,ln,mln->smn"))
    if cU is not None:
        a = orders(DS, cU * inv, rfU, "sml,ln,mjln->jsmn")
        fth = fth + even(a[0])
        fph = fph + 1j * odd(a[1])
    if cV is not None:
        a = orders(DS, cV * inv, rfV, "sml,ln,mjln->jsmn")
        fth = fth - 1j * odd(a[1])
        fph = fph + even(a[0])
    theta_hat = np.stack([z * np.cos(phi), z * np.sin(phi), -st], axis=1)
    phi_hat = np.stack([-np.sin(phi), np.cos(phi), np.zeros(len(pts))], axis=1)
    return fr[:, None] * pts + fth[:, None] * theta_hat + fph[:, None] * phi_hat
