"""Support-function recovery and convex-hull assembly from indicator sweeps.

At t = 0 the large-tau slope of log|I| versus tau is exactly 2 h(rho) up
to a slowly varying prefactor, which the fit removes with a log(tau)
regressor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTrustedSamples
from .indicator import IndicatorSample
from .mathkit import halfspace_hull


@dataclass
class SupportEstimate:
    rho: np.ndarray
    h_hat: float
    fit_slope_ci: tuple      # (lo, hi) on the fitted tau-slope (= 2 h)
    n_points: int
    residual: float          # rms fit residual in log|I|


def _trusted_points(samples, window_frac: float):
    pts = [(s.tau, s.ln_abs) for s in samples
           if s.trusted and math.isfinite(s.ln_abs)]
    if len(pts) < 5:
        raise InsufficientTrustedSamples(
            f"need >= 5 trusted finite samples, have {len(pts)}")
    taus = np.array([p[0] for p in pts])
    if taus.max() < 2.0 * taus.min():
        raise InsufficientTrustedSamples("tau range must span a factor >= 2")
    cut = taus.min() + window_frac * (taus.max() - taus.min())
    sel = taus >= cut
    if sel.sum() < 3:
        sel = np.ones_like(sel, dtype=bool)
    lnv = np.array([p[1] for p in pts])
    return taus[sel], lnv[sel]


def estimate_support(directions, window_frac: float = 0.5,
                     residual_bound: float = 1.0) -> list:
    """Support values from each direction's tau sweep at t = 0.

    directions: one list of samples per direction.  Fits log|I| = a tau +
    b log tau + c on each direction's trusted top-window samples; h^ =
    a / 2.  The log tau regressor absorbs the polynomial prefactor at the
    critical level, which only a lower bound is known for.  Directions
    with the same window share one least-squares solve, one column each.
    Returns one SupportEstimate per direction, in input order.
    """
    points = [_trusted_points(samples, window_frac) for samples in directions]
    groups = {}                          # window taus -> direction indices
    for i, (taus, _) in enumerate(points):
        groups.setdefault(taus.tobytes(), []).append(i)

    estimates = [None] * len(points)
    for members in groups.values():
        taus = points[members[0]][0]
        X = np.column_stack([taus, np.log(taus), np.ones_like(taus)])
        lnv = np.column_stack([points[i][1] for i in members])
        coef, *_ = np.linalg.lstsq(X, lnv, rcond=None)
        n, p = len(taus), 3
        inv00 = np.linalg.inv(X.T @ X)[0, 0] if n > p else None
        for j, i in enumerate(members):
            resid = points[i][1] - X @ coef[:, j]
            half = 0.0
            if n > p:
                sigma2 = float(resid @ resid) / (n - p)
                half = 1.96 * math.sqrt(max(sigma2 * inv00, 0.0))
            a = float(coef[0, j])
            estimates[i] = SupportEstimate(
                rho=np.asarray(directions[i][0].rho, dtype=float), h_hat=0.5 * a,
                fit_slope_ci=(a - half, a + half), n_points=int(n),
                residual=float(np.sqrt(np.mean(resid**2))))

    for e in estimates:
        if e.residual > residual_bound:
            warnings.warn(f"non-monotone tail: fit residual {e.residual:.3g} "
                          f"exceeds {residual_bound:.3g}", stacklevel=2)
    return estimates


def synth_translated(samples, c) -> list:
    """Indicator samples of the configuration translated by c.

    Shifting obstacle and domain by c multiplies the CGO trace by
    exp(i zeta . c), hence the indicator by exp(2 tau c . rho): a pure
    exponent shift, exact in scaled arithmetic.
    """
    c = np.asarray(c, dtype=float)
    out = []
    for s in samples:
        shift = 2.0 * s.tau * float(c @ s.rho)
        out.append(IndicatorSample(rho=s.rho, tau=s.tau, t=s.t,
                                   value=s.value.scale_exp(shift),
                                   trace_tail=s.trace_tail, trusted=s.trusted))
    return out


def reconstruct_hull(estimates, truth_support=None):
    """Halfspace hull of the per-direction support estimates, plus a report.

    truth_support: optional callable rho -> h for error metrics.
    """
    planes = [(e.rho, e.h_hat) for e in estimates]
    mesh = halfspace_hull(planes)
    report = {
        "n_directions": len(estimates),
        "hull_volume": mesh.volume,
        "max_constraint_violation": mesh.max_constraint_violation(),
        "centroid": mesh.centroid().tolist(),
    }
    if truth_support is not None:
        errs = [abs(e.h_hat - float(truth_support(e.rho))) for e in estimates]
        report["sup_support_error"] = max(errs)
        report["mean_support_error"] = float(np.mean(errs))
    return mesh, report


# ---------------------------------------------------------------------------
# direction sets


def directions_axes26() -> np.ndarray:
    """The 26 nonzero sign patterns of {-1,0,1}^3, normalized."""
    out = []
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            for kk in (-1, 0, 1):
                if i == j == kk == 0:
                    continue
                v = np.array([i, j, kk], dtype=float)
                out.append(v / np.linalg.norm(v))
    return np.array(out)


def directions_fibonacci(n: int) -> np.ndarray:
    """Deterministic spiral points, roughly uniform over S^2."""
    if n < 1:
        raise ValueError("need n >= 1")
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


__all__ = ["SupportEstimate", "estimate_support", "synth_translated",
           "reconstruct_hull", "directions_axes26", "directions_fibonacci"]
