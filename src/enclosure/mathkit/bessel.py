"""Spherical Bessel/Neumann/Hankel functions and Riccati-Bessel tables.

j_l uses the downward ratio recurrence (overflow-free Miller scheme,
normalized by j_0 = sin z / z); y_l uses the upward recurrence, which is
stable because y grows with order.  Both accept complex arguments and
vectorize over an array of arguments at fixed maximum order.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PoleAtZero


def _start_order(lmax: int, zmax: float) -> int:
    return lmax + int(8 * math.sqrt(max(lmax, 1))) + int(1.1 * zmax) + 16


def _jn_ratios(lmax: int, z: np.ndarray) -> np.ndarray:
    """r_n = j_n(z) / j_{n-1}(z) for n = 1..lmax (row 0 unused), by the
    downward recurrence; z is a nonzero array."""
    nstart = _start_order(lmax, float(np.max(np.abs(z))) if z.size else 0.0)
    r = z / (2 * nstart + 1.0)
    ratios = np.zeros((lmax + 1,) + z.shape, dtype=z.dtype)
    for n in range(nstart - 1, 0, -1):
        r = z / ((2 * n + 1.0) - z * r)
        if n <= lmax:
            ratios[n] = r
    return ratios


def spherical_jn_table(lmax: int, z):
    """j_l(z) for l = 0..lmax; z scalar or array (real or complex).

    Returns an array of shape (lmax+1,) + shape(z).
    """
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).astype(complex if np.iscomplexobj(z) else float)
    out = np.zeros((lmax + 1,) + z.shape, dtype=z.dtype if z.dtype.kind == "c" else float)
    small = np.abs(z) < 1e-300
    zs = np.where(small, 1.0, z)

    ratios = _jn_ratios(lmax, zs)
    j0 = np.sin(zs) / zs
    out[0] = np.where(small, 1.0, j0)
    acc = out[0]
    for l in range(1, lmax + 1):
        acc = acc * ratios[l]
        out[l] = np.where(small, 0.0, acc)
    return out[:, 0] if scalar else out


def spherical_yn_table(lmax: int, z):
    """y_l(z) for l = 0..lmax by upward recurrence; z must be nonzero."""
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).astype(complex if np.iscomplexobj(z) else float)
    if np.any(np.abs(z) < 1e-300):
        raise PoleAtZero("y_l has a pole at z = 0")
    out = np.zeros((lmax + 1,) + z.shape, dtype=z.dtype if z.dtype.kind == "c" else float)
    out[0] = -np.cos(z) / z
    if lmax >= 1:
        out[1] = -np.cos(z) / z**2 - np.sin(z) / z
    for l in range(1, lmax):
        out[l + 1] = (2 * l + 1.0) / z * out[l] - out[l - 1]
    return out[:, 0] if scalar else out


def riccati_j_logs(lmax: int, z: float):
    """(log|j_l(z)|, log|psi_l'(z) / z|) for l = 0..lmax at a real z > 0.

    Summed from the downward ratios, so neither underflows at high degree:
    psi_l' = z j_{l-1} - l j_l = j_l (z / r_l - l) with r_l = j_l / j_{l-1}.
    """
    ratios = _jn_ratios(lmax, np.array([float(z)]))[:, 0]
    log_j = np.empty(lmax + 1)
    log_j[0] = math.log(abs(math.sin(z) / z))
    log_j[1:] = log_j[0] + np.cumsum(np.log(np.abs(ratios[1:])))
    log_dpsi = log_j - math.log(z)
    log_dpsi[0] = math.log(abs(math.cos(z) / z))
    ell = np.arange(1, lmax + 1)
    log_dpsi[1:] += np.log(np.abs(z / ratios[1:] - ell))
    return log_j, log_dpsi


def sph_bessel(kind: str, l: int, z):
    """Single spherical Bessel value: kind in {'j', 'y', 'h1'}.

    'y' and 'h1' raise PoleAtZero at z = 0.
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    if kind == "j":
        return complex(spherical_jn_table(l, complex(z))[l])
    if kind not in ("y", "h1"):
        raise ValueError(f"unknown kind {kind!r}")
    if abs(z) < 1e-300:
        raise PoleAtZero(f"{kind} undefined at z = 0")
    y = complex(spherical_yn_table(l, complex(z))[l])
    if kind == "y":
        return y
    return complex(spherical_jn_table(l, complex(z))[l]) + 1j * y


def riccati_tables(lmax: int, z):
    """Riccati-Bessel tables at z, a scalar or an array of arguments.

    Returns (psi, dpsi, chi, dchi), each of shape (lmax+1,) + shape(z),
    where psi_l = z j_l, chi_l = z y_l and primes are d/dz.  xi = psi + 1j*chi.
    """
    jt = spherical_jn_table(lmax, z)
    yt = spherical_yn_table(lmax, z)
    z = np.asarray(z)
    ell = np.arange(lmax + 1).reshape((-1,) + (1,) * z.ndim)
    psi = z * jt
    chi = z * yt
    # psi'_l = z j_{l-1} - l j_l, with j_{-1} = cos z / z; same shape for chi
    dpsi = np.empty_like(psi)
    dchi = np.empty_like(chi)
    dpsi[0] = np.cos(z)
    dchi[0] = np.sin(z)
    if lmax >= 1:
        dpsi[1:] = z * jt[:-1] - ell[1:] * jt[1:]
        dchi[1:] = z * yt[:-1] - ell[1:] * yt[1:]
    return psi, dpsi, chi, dchi
