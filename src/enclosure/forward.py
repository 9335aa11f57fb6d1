"""Exact spectral forward solver on concentric spheres.

Separates the Maxwell boundary-value problems into per-(degree, polarization)
radial solves in the Riccati-Bessel basis and exposes the boundary impedance
operators (empty ball, PEC obstacle, permeability-contrast obstacle) plus
interior field reconstruction for the volume diagnostics.

Operator differences to the empty map are also assembled in closed form
(Wronskian identity), which keeps the exponentially small high-degree
entries free of subtractive cancellation.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .conventions import POL_U, POL_V, TE, TM
from .errors import (DegreeMismatch, InvalidMedium, NearEigenvalue,
                     PointOutOfDomain, RadialOverflow)
from .mathkit import VshCoeffs, riccati_tables, synth_modes_at_points
from .mathkit.vsh import VshTransform

DEFAULT_EIGEN_GUARD = 1e-10


@dataclass(frozen=True)
class Geometry:
    """Concentric configuration: obstacle ball inside the measurement ball."""

    r_obstacle: float
    r_domain: float

    def __post_init__(self):
        if not (0.0 < self.r_obstacle < self.r_domain):
            raise ValueError("need 0 < r_obstacle < r_domain")


@dataclass(frozen=True)
class Medium:
    """Permeability contrast: mu = 1 - mu_contrast inside the obstacle.

    Permittivity is fixed at 1 everywhere; the indicator mechanism under
    study is the mu jump.
    """

    mu_contrast: float

    @property
    def mu_inside(self) -> float:
        return 1.0 - self.mu_contrast


@dataclass
class ImpedanceOperator:
    """Diagonal boundary map: per (l, pol) scalar on tangential traces.

    lam[TE][l] multiplies the U-coefficient of nu^E into the V-coefficient
    of nu^H; lam[TM][l] maps V -> U.  diff_empty holds the exact entries of
    (this - empty map), zero for the empty map itself.
    """

    k: float
    r_domain: float
    L: int
    lam: np.ndarray            # (2, L+1) complex
    diff_empty: np.ndarray     # (2, L+1) complex
    label: str = "empty"


def apply_impedance(op: ImpedanceOperator, f: VshCoeffs) -> VshCoeffs:
    """Coefficient-wise action of the impedance map on a nu^E trace."""
    if f.L > op.L:
        raise DegreeMismatch(f"trace degree {f.L} exceeds operator degree {op.L}")
    out = VshCoeffs.zeros(f.L, ln_scale=f.ln_scale)
    lte = op.lam[TE, :f.L + 1, None]
    ltm = op.lam[TM, :f.L + 1, None]
    out.data[POL_V] = lte * f.data[POL_U]
    out.data[POL_U] = ltm * f.data[POL_V]
    return out


# ---------------------------------------------------------------------------
# radial machinery


@dataclass(frozen=True)
class _Region:
    """One radial region: Z_l(z) = cj_l psi_l(z) + cy_l chi_l(z), z = k r.

    h_factor scales the magnetic field (1/sqrt(mu) inside a contrast ball).
    """

    r_lo: float
    r_hi: float
    wavenumber: float
    h_factor: complex
    cj: np.ndarray     # (2, L+1): coefficient of psi per polarization
    cy: np.ndarray     # (2, L+1): coefficient of chi


@dataclass
class FieldSolution:
    """A solved boundary-value problem, evaluable anywhere in its domain."""

    problem: str                 # 'empty' | 'pec' | 'transmission'
    k: float
    geometry: Geometry | None
    medium: Medium | None
    L: int
    r_domain: float
    regions: list = field(default_factory=list)
    operator: ImpedanceOperator | None = None

    # -- mode-level tables --

    def _region_at(self, r: float) -> _Region:
        for reg in self.regions:
            if reg.r_lo - 1e-12 <= r <= reg.r_hi * (1.0 + 1e-12):
                return reg
        raise PointOutOfDomain(f"radius {r} outside the solved domain")

    def radial_factors(self, r: float) -> dict:
        """Per-degree field factors of the reference (unit) modes at radius r.

        Keys 'E_P','E_U','E_V','H_P','H_U','H_V', each an (L+1,) complex
        array.  TE modes contribute E_V, H_P, H_U; TM modes E_P, E_U, H_V.
        """
        reg = self._region_at(r)
        z = reg.wavenumber * r
        # a regular region (the inner ball) has no chi part, and chi
        # overflows there near the origin: 0 * inf would be NaN
        regular = not np.any(reg.cy)
        with (np.errstate(over="ignore", invalid="ignore") if regular
              else contextlib.nullcontext()):
            psi, dpsi, chi, dchi = riccati_tables(self.L, z)
        ll = np.arange(self.L + 1, dtype=float)
        lhat = ll * (ll + 1.0)
        sq = np.sqrt(lhat)
        z_te, dz_te = reg.cj[TE] * psi, reg.cj[TE] * dpsi
        z_tm, dz_tm = reg.cj[TM] * psi, reg.cj[TM] * dpsi
        if not regular:
            z_te = z_te + reg.cy[TE] * chi
            dz_te = dz_te + reg.cy[TE] * dchi
            z_tm = z_tm + reg.cy[TM] * chi
            dz_tm = dz_tm + reg.cy[TM] * dchi
        hf = reg.h_factor
        return {
            "E_V": -sq * z_te / z,
            "H_P": -1j * hf * lhat * z_te / (z * z),
            "H_U": -1j * hf * sq * dz_te / z,
            "E_P": lhat * z_tm / (z * z),
            "E_U": sq * dz_tm / z,
            "H_V": 1j * hf * sq * z_tm / z,
        }

    def boundary_mode_traces(self) -> tuple[np.ndarray, np.ndarray]:
        """(q_te, q_tm): nu^E trace coefficients of the unit reference modes.

        q_te[l] is the U-coefficient of nu^E for the TE mode, q_tm[l] the
        V-coefficient for the TM mode, both at r = r_domain.
        """
        fac = self.radial_factors(self.r_domain)
        return -fac["E_V"], fac["E_U"]

    def amplitudes(self, boundary_e: VshCoeffs) -> tuple[np.ndarray, np.ndarray]:
        """Per-(l,m) mode amplitudes reproducing a nu^E trace."""
        if boundary_e.L != self.L:
            raise DegreeMismatch("trace degree must match the solution degree")
        q_te, q_tm = self.boundary_mode_traces()
        with np.errstate(invalid="ignore", divide="ignore"):
            amp_te = np.where(q_te[:, None] != 0,
                              boundary_e.data[POL_U] / q_te[:, None], 0.0)
            amp_tm = np.where(q_tm[:, None] != 0,
                              boundary_e.data[POL_V] / q_tm[:, None], 0.0)
        amp_te[0] = 0.0
        amp_tm[0] = 0.0
        return amp_te, amp_tm

    # -- field evaluation --

    def fields_on_shell(self, amp_te: np.ndarray, amp_tm: np.ndarray,
                        r: float, transform: VshTransform):
        """(E, H) Cartesian samples on transform.grid scaled to radius r."""
        fac = self.radial_factors(r)
        e_field = transform.synth_vector(
            amp_tm * fac["E_P"][:, None],
            VshCoeffs(self.L, np.stack([amp_tm * fac["E_U"][:, None],
                                        amp_te * fac["E_V"][:, None]])))
        h_field = transform.synth_vector(
            amp_te * fac["H_P"][:, None],
            VshCoeffs(self.L, np.stack([amp_te * fac["H_U"][:, None],
                                        amp_tm * fac["H_V"][:, None]])))
        return e_field, h_field

    def eval_fields(self, boundary_e: VshCoeffs, points):
        """(E, H) at scattered points (slow path, meant for small batches)."""
        pts = np.asarray(points, dtype=float)
        radii = np.linalg.norm(pts, axis=1)
        if np.any(radii > self.r_domain * (1.0 + 1e-9)):
            raise PointOutOfDomain("point outside the measurement ball")
        if self.problem == "pec" and np.any(radii < self.geometry.r_obstacle * (1.0 - 1e-9)):
            raise PointOutOfDomain("point inside the PEC obstacle")
        amp_te, amp_tm = self.amplitudes(boundary_e)
        e_out = np.empty((len(pts), 3), dtype=complex)
        h_out = np.empty_like(e_out)
        with np.errstate(invalid="ignore"):
            units = pts / np.where(radii[:, None] > 0, radii[:, None], 1.0)
        for i, (u, r) in enumerate(zip(units, radii)):
            r = max(r, 1e-9 * self.r_domain)
            fac = self.radial_factors(r)
            e_out[i] = synth_modes_at_points(
                u[None, :], self.L,
                cP=amp_tm, rfP=fac["E_P"][:, None],
                cU=amp_tm, rfU=fac["E_U"][:, None],
                cV=amp_te, rfV=fac["E_V"][:, None])[0]
            h_out[i] = synth_modes_at_points(
                u[None, :], self.L,
                cP=amp_te, rfP=fac["H_P"][:, None],
                cU=amp_te, rfU=fac["H_U"][:, None],
                cV=amp_tm, rfV=fac["H_V"][:, None])[0]
        return e_out, h_out


# ---------------------------------------------------------------------------
# operator assembly


def _lam_from_xi(xi_a, dxi_a):
    lam = np.zeros((2, len(xi_a)), dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam[TE] = np.where(xi_a != 0, -1j * dxi_a / xi_a, 0.0)
        lam[TM] = np.where(dxi_a != 0, -1j * xi_a / dxi_a, 0.0)
    return lam


def _guard_eigenvalues(label, guard, scale_te, xi_te_a, scale_tm, dxi_tm_a, L):
    ell = np.arange(1, L + 1)
    bad_te = ell[np.abs(xi_te_a[1:]) < guard * scale_te[1:]]
    if bad_te.size:
        raise NearEigenvalue(f"{label}: TE radial determinant ~ 0 at l = {bad_te[0]}")
    bad_tm = ell[np.abs(dxi_tm_a[1:]) < guard * scale_tm[1:]]
    if bad_tm.size:
        raise NearEigenvalue(f"{label}: TM radial determinant ~ 0 at l = {bad_tm[0]}")


def _outer_maps(label, guard, L, alpha, beta, psi_a, dpsi_a, chi_a, dchi_a):
    """(lam, diff_empty) at r_domain for the outer solution alpha psi + beta chi.

    Raises RadialOverflow when an entry of diff_empty is not finite, which
    happens once the radial functions leave the double range.
    """
    xi_a = alpha * psi_a + beta * chi_a
    dxi_a = alpha * dpsi_a + beta * dchi_a
    scale = (np.abs(alpha) * (np.abs(psi_a) + np.abs(dpsi_a))
             + np.abs(beta) * (np.abs(chi_a) + np.abs(dchi_a)))
    _guard_eigenvalues(label, guard, scale[TE], xi_a[TE],
                       scale[TM], dxi_a[TM], L)

    lam = _lam_from_xi(xi_a[TE], dxi_a[TE])
    lam[TM] = _lam_from_xi(xi_a[TM], dxi_a[TM])[TM]

    # exact Lambda_D - Lambda_empty via the Wronskian identity
    # Xi' psi - Xi psi' = beta (psi chi' - psi' chi) = beta
    diff = np.zeros_like(lam)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff[TE] = np.where(xi_a[TE] != 0, -1j * beta[TE] / (xi_a[TE] * psi_a), 0.0)
        diff[TM] = np.where(dxi_a[TM] != 0, 1j * beta[TM] / (dxi_a[TM] * dpsi_a), 0.0)
    diff[:, 0] = 0.0
    bad = np.flatnonzero(~np.all(np.isfinite(diff), axis=0))
    if bad.size:
        raise RadialOverflow(f"{label}: operator difference not finite at "
                             f"l = {bad[0]}; lower the truncation degree")
    return lam, diff


def solution_empty(k: float, r_domain: float, L: int,
                   guard: float = DEFAULT_EIGEN_GUARD) -> FieldSolution:
    """Regular solution in the full ball: the Lambda_emptyset context."""
    if k <= 0.0 or L < 1:
        raise ValueError("need k > 0 and L >= 1")
    a = k * r_domain
    # chi overflows at high degree; the empty map never reads it
    with np.errstate(over="ignore", invalid="ignore"):
        psi_a, dpsi_a, chi_a, dchi_a = riccati_tables(L, a)
    scale = np.abs(psi_a) + np.abs(dpsi_a)
    _guard_eigenvalues("empty ball", guard, scale, psi_a, scale, dpsi_a, L)

    lam = _lam_from_xi(psi_a, dpsi_a)
    op = ImpedanceOperator(k=k, r_domain=r_domain, L=L, lam=lam,
                           diff_empty=np.zeros_like(lam), label="empty")
    cj = np.ones((2, L + 1))
    cy = np.zeros((2, L + 1))
    sol = FieldSolution(problem="empty", k=k, geometry=None, medium=None,
                        L=L, r_domain=r_domain,
                        regions=[_Region(0.0, r_domain, k, 1.0, cj, cy)],
                        operator=op)
    return sol


def solution_pec(k: float, geometry: Geometry, L: int,
                 guard: float = DEFAULT_EIGEN_GUARD) -> FieldSolution:
    """Annulus solution with nu^H = 0 on the obstacle sphere."""
    if k <= 0.0 or L < 1:
        raise ValueError("need k > 0 and L >= 1")
    a = k * geometry.r_domain
    b = k * geometry.r_obstacle
    # past the double range the tables overflow; _outer_maps then raises
    # RadialOverflow, which is the one report of it
    with np.errstate(over="ignore", invalid="ignore"):
        psi_a, dpsi_a, chi_a, dchi_a = riccati_tables(L, a)
        psi_b, dpsi_b, chi_b, dchi_b = riccati_tables(L, b)

        # nu^H = 0: TE kills dZ(b) (alpha, beta) = (chi'(b), -psi'(b));
        #           TM kills  Z(b) (alpha, beta) = (chi(b),  -psi(b))
        alpha = np.stack([dchi_b, chi_b])
        beta = np.stack([-dpsi_b, -psi_b])
        lam, diff = _outer_maps("pec annulus", guard, L, alpha, beta,
                                psi_a, dpsi_a, chi_a, dchi_a)

    op = ImpedanceOperator(k=k, r_domain=geometry.r_domain, L=L, lam=lam,
                           diff_empty=diff, label="pec")
    sol = FieldSolution(problem="pec", k=k, geometry=geometry, medium=None,
                        L=L, r_domain=geometry.r_domain,
                        regions=[_Region(geometry.r_obstacle, geometry.r_domain,
                                         k, 1.0, alpha, beta)],
                        operator=op)
    return sol


def solution_transmission(k: float, geometry: Geometry, medium: Medium, L: int,
                          guard: float = DEFAULT_EIGEN_GUARD) -> FieldSolution:
    """Ball-in-ball solution with tangential continuity across the interface."""
    if k <= 0.0 or L < 1:
        raise ValueError("need k > 0 and L >= 1")
    mu = medium.mu_inside
    if mu <= 0.0:
        raise InvalidMedium(f"mu inside must be positive, got {mu}")
    rmu = math.sqrt(mu)
    k_in = k * rmu
    a = k * geometry.r_domain
    b = k * geometry.r_obstacle
    b_in = k_in * geometry.r_obstacle

    # as in solution_pec, an overflow ends in RadialOverflow alone
    with np.errstate(over="ignore", invalid="ignore"):
        psi_a, dpsi_a, chi_a, dchi_a = riccati_tables(L, a)
        psi_b, dpsi_b, chi_b, dchi_b = riccati_tables(L, b)
        psi_i, dpsi_i, _, _ = riccati_tables(L, b_in)

        # interface conditions with interior amplitude A = 1:
        #   TE: alpha psi(b) + beta chi(b) = psi(b_in)/sqrt(mu)
        #       alpha psi'(b) + beta chi'(b) = psi'(b_in)/mu
        #   TM: same matrix, rhs (psi(b_in)/mu, psi'(b_in)/sqrt(mu))
        rhs1 = np.stack([psi_i / rmu, psi_i / mu])
        rhs2 = np.stack([dpsi_i / mu, dpsi_i / rmu])
        # Cramer with the Wronskian determinant psi chi' - psi' chi (= 1 exactly)
        det = psi_b * dchi_b - dpsi_b * chi_b
        alpha = (dchi_b * rhs1 - chi_b * rhs2) / det
        beta = (psi_b * rhs2 - dpsi_b * rhs1) / det
        lam, diff = _outer_maps("transmission", guard, L, alpha, beta,
                                psi_a, dpsi_a, chi_a, dchi_a)

    op = ImpedanceOperator(k=k, r_domain=geometry.r_domain, L=L, lam=lam,
                           diff_empty=diff, label="transmission")
    inner = _Region(0.0, geometry.r_obstacle, k_in, 1.0 / rmu,
                    np.ones((2, L + 1)), np.zeros((2, L + 1)))
    outer = _Region(geometry.r_obstacle, geometry.r_domain, k, 1.0, alpha, beta)
    sol = FieldSolution(problem="transmission", k=k, geometry=geometry,
                        medium=medium, L=L, r_domain=geometry.r_domain,
                        regions=[inner, outer], operator=op)
    return sol


__all__ = ["Geometry", "Medium", "ImpedanceOperator", "FieldSolution",
           "apply_impedance",
           "solution_empty", "solution_pec", "solution_transmission",
           "DEFAULT_EIGEN_GUARD"]
