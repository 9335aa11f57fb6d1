"""Convex polytopes from support-plane data.

The reconstruction produces per-direction support values h(rho); the body
is the intersection of the halfspaces x . rho <= h.  scipy's halfspace
intersection does the heavy lifting; this wrapper adds the boundedness /
feasibility guards and a watertight triangulated mesh.  scipy is imported
where a hull is built, not with this module: `sweep` and `validate` build
none, and the import is most of the start-up time of every command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import Infeasible, Unbounded


@dataclass
class HullMesh:
    """Watertight triangle mesh of a bounded convex polytope."""

    vertices: np.ndarray          # (nv, 3)
    faces: np.ndarray             # (nf, 3) int, outward-oriented
    source_directions: list       # [(rho, h)] pairs that cut the polytope

    @property
    def volume(self) -> float:
        from scipy.spatial import ConvexHull
        return float(ConvexHull(self.vertices).volume)

    def centroid(self) -> np.ndarray:
        """Volume centroid (tetrahedra fan from the vertex mean)."""
        origin = self.vertices.mean(axis=0)
        total_v = 0.0
        acc = np.zeros(3)
        for tri in self.faces:
            a, b, c = self.vertices[tri]
            v = np.dot(a - origin, np.cross(b - origin, c - origin)) / 6.0
            acc += v * (origin + a + b + c) / 4.0
            total_v += v
        return acc / total_v if total_v else origin

    def support(self, direction) -> float:
        d = np.asarray(direction, dtype=float)
        return float(np.max(self.vertices @ d))

    def max_constraint_violation(self) -> float:
        worst = 0.0
        for rho, h in self.source_directions:
            worst = max(worst, float(np.max(self.vertices @ rho) - h))
        return worst


def _assert_bounded_feasible(rhos: np.ndarray, hs: np.ndarray):
    from scipy.optimize import linprog
    # the region is bounded iff max +-x_j is finite for all axes
    for j in range(3):
        for sign in (1.0, -1.0):
            c = np.zeros(3)
            c[j] = -sign
            res = linprog(c=c, A_ub=rhos, b_ub=hs,
                          bounds=[(None, None)] * 3, method="highs")
            if res.status == 3:
                raise Unbounded("directions do not positively span R^3")
            if res.status == 2:
                raise Infeasible("halfspace intersection is empty")


def _chebyshev_center(rhos: np.ndarray, hs: np.ndarray):
    from scipy.optimize import linprog
    n = len(rhos)
    a_ub = np.hstack([rhos, np.ones((n, 1))])
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=a_ub, b_ub=hs,
                  bounds=[(None, None)] * 3 + [(0, None)], method="highs")
    if not res.success or res.x[3] <= 1e-12:
        raise Infeasible("halfspace intersection has empty interior")
    return res.x[:3]


def halfspace_hull(planes) -> HullMesh:
    """Intersect halfspaces {x . rho <= h} into a triangulated polytope.

    planes: iterable of (rho, h) with rho a 3-vector (normalized here).
    Raises Unbounded when the directions fail to positively span R^3 and
    Infeasible when the intersection is empty.
    """
    from scipy.spatial import ConvexHull, HalfspaceIntersection
    rhos, hs = [], []
    for rho, h in planes:
        rho = np.asarray(rho, dtype=float)
        nrm = np.linalg.norm(rho)
        if nrm < 1e-12:
            continue
        rhos.append(rho / nrm)
        hs.append(float(h) / nrm)
    rhos = np.asarray(rhos)
    hs = np.asarray(hs)
    if len(rhos) < 4:
        raise ValueError("need at least 4 non-degenerate planes")
    _assert_bounded_feasible(rhos, hs)
    interior = _chebyshev_center(rhos, hs)

    hsi = HalfspaceIntersection(np.hstack([rhos, -hs[:, None]]), interior)
    pts = hsi.intersections
    # collapse duplicate corners where > 3 planes meet
    scale = max(1.0, float(np.max(np.abs(pts))))
    _, keep = np.unique(np.round(pts / scale, 9), axis=0, return_index=True)
    pts = pts[np.sort(keep)]

    hull = ConvexHull(pts)
    verts = pts[hull.vertices]
    remap = {old: new for new, old in enumerate(hull.vertices)}
    faces = np.array([[remap[i] for i in simplex] for simplex in hull.simplices])

    # orient all triangles outward
    center = verts.mean(axis=0)
    for f in faces:
        a, b, c = verts[f]
        if np.dot(np.cross(b - a, c - a), (a + b + c) / 3.0 - center) < 0.0:
            f[1], f[2] = f[2], f[1]

    return HullMesh(vertices=verts, faces=faces,
                    source_directions=[(r, h) for r, h in zip(rhos, hs)])
