"""Orthonormal direction triads (rho, rho_perp, rho x rho_perp)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ZeroVector


@dataclass(frozen=True, eq=False)
class Frame:
    """Right-handed orthonormal triad completing a probe direction rho.

    The completion rule is deterministic: rho_perp is derived from the
    canonical axis least aligned with rho (ties broken x < y < z), so
    repeated sweeps see identical frames.
    """

    rho: np.ndarray
    rho_perp: np.ndarray
    rho_cross: np.ndarray


_AXES = np.eye(3)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of 3-vectors (real or complex) along the last axis, bit for bit
    np.cross.

    The same elementwise products and differences as np.cross, without its
    axis handling, which costs most of a call on single vectors.
    """
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row over its norm, with np.linalg.norm's arithmetic (a BLAS dot
    per row, then sqrt)."""
    return v / np.array([math.sqrt(r.dot(r)) for r in v])[:, None]


def build_frames(rhos) -> tuple:
    """(rho, rho_perp, rho_cross) as (n, 3) arrays: row i is build_frame's
    triad of row i of `rhos`, bit for bit.  Rows must have nonzero norm."""
    rho = _unit_rows(np.ascontiguousarray(rhos, dtype=float))
    # np.argmin returns the first minimum, which is exactly the x<y<z tie rule
    perp = _unit_rows(cross3(_AXES[np.argmin(np.abs(rho), axis=1)], rho))
    return rho, perp, cross3(rho, perp)


def build_frame(rho) -> Frame:
    """Complete a unit direction into an orthonormal Frame.

    Raises ZeroVector if |rho| < 1e-12.  The input is renormalized, so a
    vector within 1e-12 of unit length is accepted as is.
    """
    rho = np.asarray(rho, dtype=float)
    if float(np.linalg.norm(rho)) < 1e-12:
        raise ZeroVector("direction vector has zero norm")
    (rho,), (perp,), (cross,) = build_frames(rho[None, :])
    return Frame(rho=rho, rho_perp=perp, rho_cross=cross)
