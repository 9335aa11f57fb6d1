"""Numerical substrate: frames, scaled arithmetic, Bessel and Riccati-Bessel
tables, sphere quadrature, VSH transforms and scattered-point synthesis (both
built on one set of associated-Legendre tables), and halfspace hulls."""

from .bessel import riccati_tables
from .frames import Frame, build_frame, cross3
from .hull import HullMesh, halfspace_hull
from .scaled import ScaledComplex, normalize, scaled
from .spheregrid import SphereGrid, sphere_quadrature
from .vsh import VshCoeffs, VshTransform, get_transform, synth_modes_at_points

__all__ = [
    "Frame", "build_frame", "cross3",
    "ScaledComplex", "scaled", "normalize", "riccati_tables",
    "SphereGrid", "sphere_quadrature",
    "VshCoeffs", "VshTransform", "get_transform", "synth_modes_at_points",
    "HullMesh", "halfspace_hull",
]
