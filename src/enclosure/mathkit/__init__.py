"""Numerical substrate: frames, scaled arithmetic, Bessel and Riccati-Bessel
tables, sphere quadrature, VSH transforms and scattered-point synthesis (both
built on one set of associated-Legendre tables), and halfspace hulls."""

from .bessel import riccati_tables, sph_bessel
from .frames import Frame, build_frame
from .hull import HullMesh, halfspace_hull
from .scaled import ScaledComplex, ScaledVector, scaled, scaled_from_ln
from .spheregrid import SphereGrid, sphere_quadrature
from .vsh import VshCoeffs, VshTransform, get_transform, synth_modes_at_points

__all__ = [
    "Frame", "build_frame",
    "ScaledComplex", "ScaledVector", "scaled", "scaled_from_ln",
    "sph_bessel", "riccati_tables",
    "SphereGrid", "sphere_quadrature",
    "VshCoeffs", "VshTransform", "get_transform", "synth_modes_at_points",
    "HullMesh", "halfspace_hull",
]
