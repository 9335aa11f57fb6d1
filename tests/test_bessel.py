import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from enclosure.errors import PoleAtZero
from enclosure.mathkit import riccati_tables, sph_bessel
from enclosure.mathkit.bessel import (riccati_j_logs, spherical_jn_table,
                                      spherical_yn_table)


def series_jl(l, z, dps=35, terms=60):
    """Taylor-series oracle: j_l(z) = z^l sum_n (-z^2/2)^n / (n! (2l+2n+1)!!)."""
    with mpmath.workdps(dps):
        zm = mpmath.mpmathify(z)
        total = mpmath.mpf(0)
        for n in range(terms):
            num = (-zm * zm / 2) ** n
            den = mpmath.factorial(n) * mpmath.fac2(2 * l + 2 * n + 1)
            total += num / den
        return complex(total * zm**l)


def test_j0_at_pi_vanishes():
    assert abs(sph_bessel("j", 0, math.pi)) < 1e-14


def test_h1_zero_order_closed_form():
    # h1_0(z) = -i exp(iz)/z
    val = sph_bessel("h1", 0, 1.0)
    assert abs(val - (-1j * np.exp(1j))) < 1e-14


def test_j5_matches_series_oracle():
    assert abs(sph_bessel("j", 5, 2.0) - series_jl(5, 2.0)) < 1e-13


@pytest.mark.parametrize("l,z", [(0, 0.3), (3, 1.7), (8, 0.5), (12, 9.0), (20, 30.0)])
def test_j_matches_series_various(l, z):
    ref = series_jl(l, z)
    assert abs(sph_bessel("j", l, z) - ref) < 1e-13 * max(1.0, abs(ref) / 1e-3)


def test_tables_match_scipy_real_args():
    z = np.linspace(0.2, 40.0, 37)
    lmax = 25
    jt = spherical_jn_table(lmax, z)
    yt = spherical_yn_table(lmax, z)
    for l in (0, 1, 7, 25):
        assert np.allclose(jt[l], sps.spherical_jn(l, z), rtol=1e-12, atol=1e-300)
        assert np.allclose(yt[l], sps.spherical_yn(l, z), rtol=1e-12)


@pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
def test_riccati_j_logs_against_mpmath(z):
    """log|j_l| and log|psi_l'/z| stay exact where j_l itself underflows
    (j_160(0.5) is about 1e-370)."""
    log_j, log_dpsi = riccati_j_logs(160, z)
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)

        def j(l):
            if l < 0:
                return mpmath.cos(zm) / zm
            return mpmath.sqrt(mpmath.pi / (2 * zm)) * mpmath.besselj(l + mpmath.mpf(1) / 2, zm)

        for l in (0, 1, 10, 96, 160):
            assert abs(log_j[l] - float(mpmath.log(abs(j(l))))) < 1e-11
            dpsi = j(l - 1) - l * j(l) / zm
            assert abs(log_dpsi[l] - float(mpmath.log(abs(dpsi)))) < 1e-11


def test_complex_argument_against_mpmath():
    z = 2.0 + 1.5j
    for l in (0, 2, 6):
        with mpmath.workdps(30):
            ref = complex(mpmath.sqrt(mpmath.pi / (2 * z))
                          * mpmath.besselj(l + mpmath.mpf(1) / 2, z))
        assert abs(sph_bessel("j", l, z) - ref) < 1e-12 * max(1.0, abs(ref))


def test_pole_at_zero():
    with pytest.raises(PoleAtZero):
        sph_bessel("y", 2, 0.0)
    with pytest.raises(PoleAtZero):
        sph_bessel("h1", 0, 0.0)
    assert sph_bessel("j", 0, 0.0) == 1.0
    assert sph_bessel("j", 3, 0.0) == 0.0


def test_riccati_wronskians():
    # psi chi' - psi' chi = 1 and psi xi' - psi' xi = i, all orders
    for z in (0.5, 1.0, 4.4, 17.3):
        psi, dpsi, chi, dchi = riccati_tables(30, z)
        w = psi * dchi - dpsi * chi
        assert np.max(np.abs(w - 1.0)) < 1e-10
        xi, dxi = psi + 1j * chi, dpsi + 1j * dchi
        w2 = psi * dxi - dpsi * xi
        assert np.max(np.abs(w2 - 1j)) < 1e-10


def test_riccati_derivative_by_finite_differences():
    z, h = 3.7, 1e-6
    psi, dpsi, chi, dchi = riccati_tables(12, z)
    pp, _, cp, _ = riccati_tables(12, z + h)
    pm, _, cm, _ = riccati_tables(12, z - h)
    assert np.max(np.abs((pp - pm) / (2 * h) - dpsi) / (1.0 + np.abs(dpsi))) < 1e-7
    assert np.max(np.abs((cp - cm) / (2 * h) - dchi) / (1.0 + np.abs(dchi))) < 1e-7


def test_vectorized_tables_match_scalar():
    zs = np.array([[0.5, 2.0, 11.0], [0.7, 3.3, 25.0]])
    tables = riccati_tables(15, zs)
    assert all(t.shape == (16, 2, 3) for t in tables)
    for idx in np.ndindex(zs.shape):
        for vec, ref in zip(tables, riccati_tables(15, float(zs[idx]))):
            assert np.allclose(vec[(slice(None),) + idx], ref, rtol=1e-13)


def test_invalid_kind_and_order():
    with pytest.raises(ValueError):
        sph_bessel("k", 1, 1.0)
    with pytest.raises(ValueError):
        sph_bessel("j", -1, 1.0)
