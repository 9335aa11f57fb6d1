"""Support-function recovery and convex-hull assembly from indicator sweeps.

At t = 0 the large-tau slope of log|I| versus tau is exactly 2 h(rho) up
to a slowly varying prefactor, which the fit removes with a log(tau)
regressor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientTrustedSamples
from .indicator import IndicatorTable
from .mathkit import halfspace_hull


@dataclass
class SupportEstimate:
    rho: np.ndarray
    h_hat: float
    fit_slope_ci: tuple      # (lo, hi) on the fitted tau-slope (= 2 h)
    n_points: int
    residual: float          # rms fit residual in log|I|


def _window(taus: np.ndarray, usable: np.ndarray, window_frac: float) -> np.ndarray:
    """Sample indices of the fit window: the usable samples whose tau is in
    the top `window_frac` of their tau range (all of them if that leaves
    fewer than 3)."""
    picked = taus[usable]
    if len(picked) < 5:
        raise InsufficientTrustedSamples(
            f"need >= 5 trusted finite samples, have {len(picked)}")
    if picked.max() < 2.0 * picked.min():
        raise InsufficientTrustedSamples("tau range must span a factor >= 2")
    cut = picked.min() + window_frac * (picked.max() - picked.min())
    sel = picked >= cut
    if sel.sum() < 3:
        sel = np.ones_like(sel, dtype=bool)
    return np.flatnonzero(usable)[sel]


def estimate_support(table: IndicatorTable, window_frac: float = 0.5,
                     residual_bound: float = 1.0) -> list:
    """Support values from each direction's tau sweep at t = 0.

    Each direction's samples are taken in (t, tau) order.  Fits log|I| =
    a tau + b log tau + c on its trusted, finite top-window samples; h^ =
    a / 2.  The log tau regressor absorbs the polynomial prefactor at the
    critical level, which only a lower bound is known for.  The window is
    found once per distinct mask of usable samples, and directions with
    the same window taus share one least-squares solve, one column each.
    Returns one SupportEstimate per direction, in input order.
    """
    n = table.shape[0]
    taus = np.tile(table.taus, len(table.ts))
    ln_abs = table.ln_abs()
    lnv_all = np.broadcast_to(ln_abs, table.shape).reshape(n, -1)
    usable = np.broadcast_to(table.trusted & np.isfinite(ln_abs),
                             table.shape).reshape(n, -1)
    windows = {}                         # usable mask -> window indices
    cols, groups = [], {}                # window taus -> direction indices
    for i, row in enumerate(usable):
        key = row.tobytes()
        if key not in windows:
            windows[key] = _window(taus, row, window_frac)
        cols.append(windows[key])
        groups.setdefault(taus[cols[i]].tobytes(), []).append(i)

    estimates = [None] * n
    for members in groups.values():
        t = taus[cols[members[0]]]
        X = np.column_stack([t, np.log(t), np.ones_like(t)])
        points = [lnv_all[i, cols[i]] for i in members]
        coef, *_ = np.linalg.lstsq(X, np.column_stack(points), rcond=None)
        n_pts, p = len(t), 3
        inv00 = np.linalg.inv(X.T @ X)[0, 0] if n_pts > p else None
        for j, i in enumerate(members):
            resid = points[j] - X @ coef[:, j]
            half = 0.0
            if n_pts > p:
                sigma2 = float(resid @ resid) / (n_pts - p)
                half = 1.96 * math.sqrt(max(sigma2 * inv00, 0.0))
            a = float(coef[0, j])
            # np.mean's sum and division, without its per-call overhead
            mean_sq = float(np.add.reduce(resid**2)) / n_pts
            estimates[i] = SupportEstimate(
                rho=table.rhos[i], h_hat=0.5 * a, fit_slope_ci=(a - half, a + half),
                n_points=int(n_pts), residual=math.sqrt(mean_sq))

    for e in estimates:
        if e.residual > residual_bound:
            warnings.warn(f"non-monotone tail: fit residual {e.residual:.3g} "
                          f"exceeds {residual_bound:.3g}", stacklevel=2)
    return estimates


def synth_translated(table: IndicatorTable, c) -> IndicatorTable:
    """The indicator table of the configuration translated by c.

    Shifting obstacle and domain by c multiplies the CGO trace by
    exp(i zeta . c), hence the indicator by exp(2 tau c . rho): one add of
    2 tau c . rho to every nonzero value's exponent, exact in scaled
    arithmetic.
    """
    c = np.asarray(c, dtype=float)
    c_rho = np.array([float(c @ rho) for rho in table.rhos])
    shift = 2.0 * table.taus * c_rho[:, None, None]
    return replace(table, exponent=np.where(table.mantissa == 0, table.exponent,
                                            table.exponent + shift))


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
