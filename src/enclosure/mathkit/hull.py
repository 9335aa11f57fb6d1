"""Convex polytopes from support-plane data, in numpy alone.

The reconstruction produces per-direction support values h(rho); the body
is the intersection of the halfspaces x . rho <= h.  It is built by
cutting a cube of half-size B = 4 max(1, max |h|) with one halfspace after
the other (Sutherland & Hodgman's polygon clipping, CACM 17:32, 1974,
lifted to 3-D):

* every live vertex is classified by one product, V @ rho - h, as outside
  (> tol), on the plane (|.| <= tol) or inside, with tol = 1e-13 B; a
  plane that leaves no vertex outside is redundant and skipped, so planes
  that only touch the polytope add no vertex;
* only the faces with a vertex outside are clipped, in Python; a crossed
  edge gets one new vertex, shared by the two faces on it, and a face
  with no vertex inside is dropped;
* the cut is closed by a cap polygon through the on-plane and new
  vertices, ordered counter-clockwise about its outward normal.

Face polygons stay counter-clockwise about their outward normals, so the
fan triangles of `HullMesh.faces` are outward and every edge is shared by
exactly two of them.  The result depends only on the planes and their
order: no random or set-order tie-break.

The cube can be too small, since a polytope can reach, or lie wholly,
beyond it.  When a cut leaves no live vertex strictly inside it, or a cube
face survives every cut, B grows 16-fold and the planes are cut again, at
most 8 times.

Errors:
* Unbounded when a cube face survives every cut and the recession cone
  {d : R d <= 0} is not {0}: the normals have rank < 3, or some
  +-(rho_i x rho_j) has R d <= 1e-12 (tested in blocks, once); also when
  a cube face survives the last growth.
* Infeasible ("empty") when every cube, the last included, is cut empty,
  and ("empty interior") when the minimum slack h - R c at the vertex
  mean c is <= 1e-12.
* Unbounded also for fewer than 4 planes with |rho| >= 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import Infeasible, Unbounded
from .frames import build_frames

_SIDE_TOL = 1e-13          # on-plane tolerance, relative to the cube size B
_CONE_TOL = 1e-12          # recession-cone test on unit directions
_SLACK_TOL = 1e-12         # minimum interior slack at the vertex mean
_GROWTH, _MAX_GROWTH_STEPS = 16.0, 8
_CONE_CHUNK = 1 << 18      # entries of R @ D per recession-cone block
# entries of V @ R^T per violation block: OpenBLAS computes m n k <= 2^18
# on one thread; with blocks of a multiple of 8 rows, each entry rounds as
# in one full product on OpenBLAS 0.3.31 at an even number of planes
_VIOLATION_BLOCK = 1 << 16

# the cube [-1, 1]^3: corners, and faces counter-clockwise about their
# outward normals
_CUBE = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
                  [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]], dtype=float)
_CUBE_FACES = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
               [2, 3, 7, 6], [0, 4, 7, 3], [1, 2, 6, 5]]


@dataclass
class HullMesh:
    """Watertight triangle mesh of a bounded convex polytope."""

    vertices: np.ndarray          # (nv, 3)
    faces: np.ndarray             # (nf, 3) int, outward-oriented
    source_directions: list       # [(rho, h)] pairs that cut the polytope

    def _tetrahedra(self):
        """Vertex mean o, corners a + b + c relative to o, and signed
        volumes of the tetrahedra (o, a, b, c) over the faces."""
        origin = self.vertices.mean(axis=0)
        a, b, c = (self.vertices[self.faces[:, i]] - origin for i in range(3))
        return origin, a + b + c, np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0

    @property
    def volume(self) -> float:
        """Divergence-theorem sum over the outward triangles."""
        return float(np.sum(self._tetrahedra()[2]))

    def centroid(self) -> np.ndarray:
        """Volume centroid (tetrahedra fan from the vertex mean)."""
        origin, corners, vol = self._tetrahedra()
        total = float(np.sum(vol))
        return origin + (vol @ corners) / (4.0 * total) if total else origin

    def support(self, direction) -> float:
        d = np.asarray(direction, dtype=float)
        return float(np.max(self.vertices @ d))

    def max_constraint_violation(self) -> float:
        """max(0, max of rho . v - h over vertices v and planes (rho, h)),
        over blocks of vertices: no (vertices x planes) matrix is made.
        Up to 10,922 planes each block runs on one BLAS thread, so the
        result does not depend on the thread count."""
        rhos = np.array([r for r, _ in self.source_directions])
        hs = np.array([h for _, h in self.source_directions])
        step = max(8, _VIOLATION_BLOCK // len(hs) // 8 * 8)
        worst = 0.0
        for lo in range(0, len(self.vertices), step):
            s = self.vertices[lo:lo + step] @ rhos.T
            s -= hs
            worst = max(worst, float(s.max()))
        return worst


def _recession_cone_is_zero(rhos: np.ndarray) -> bool:
    """Whether {d : R d <= 0} = {0}: R has rank 3 and no extreme-ray
    candidate +-(rho_i x rho_j) satisfies R d <= 0, checked in blocks."""
    if np.linalg.matrix_rank(rhos) < 3:
        return False
    first, second = np.triu_indices(len(rhos), 1)
    step = max(1, _CONE_CHUNK // len(rhos))
    for lo in range(0, len(first), step):
        d = np.cross(rhos[first[lo:lo + step]], rhos[second[lo:lo + step]])
        nrm = np.linalg.norm(d, axis=1)
        keep = nrm > 1e-12
        proj = rhos @ (d[keep] / nrm[keep, None]).T
        if np.any(proj.max(axis=0) <= _CONE_TOL) or np.any(proj.min(axis=0) >= -_CONE_TOL):
            return False
    return True


def _cap(V: np.ndarray, ids: np.ndarray, perp: np.ndarray, cross: np.ndarray) -> list:
    """Vertices `ids` of a convex polygon, ordered counter-clockwise about
    the normal whose `build_frames` triad ends in (perp, cross)."""
    W = V[ids]
    # np.mean's sum and division, without its per-call overhead
    p = W - np.add.reduce(W, axis=0) / len(ids)
    angle = np.arctan2(p @ cross, p @ perp)
    return ids[np.argsort(angle, kind="stable")].tolist()


def _clip(rhos: np.ndarray, hs: np.ndarray, half: float, frames):
    """Cut the cube [-half, half]^3 by every halfspace in turn.

    `frames` is `build_frames(rhos)`.  Returns (vertices, face polygons,
    whether a cube face survived), or None when a cut leaves no vertex
    strictly inside it; the polygons index `vertices` and are
    counter-clockwise about their outward normals.

    Faces are keyed by ids that only grow, so the dict keeps the order a
    list with deletions and appends would.  `incident[v]` holds the ids of
    the faces through vertex v, so a plane visits only the faces it cuts.
    """
    tol = _SIDE_TOL * half
    V = np.empty((64, 3))
    V[:8] = half * _CUBE
    nv = 8
    live = np.zeros(64, dtype=bool)
    live[:8] = True
    faces = {f: list(poly) for f, poly in enumerate(_CUBE_FACES)}
    incident = [{f for f, poly in faces.items() if v in poly} for v in range(8)]
    next_face = len(faces)
    for rho, h, perp, cross in zip(rhos, hs, frames[1], frames[2]):
        s = V[:nv] @ rho - h
        out = s > tol
        out &= live[:nv]
        out_ids = out.nonzero()[0]
        if not len(out_ids):
            continue
        inside = s < -tol
        inside &= live[:nv]
        if not inside.any():
            return None
        hit = sorted(set().union(*[incident[v] for v in out_ids.tolist()]))

        side = (out.view(np.int8) - inside.view(np.int8)).tolist()
        edges = {}                       # (lo, hi) -> id of the new vertex on it
        for f in hit:
            poly = faces[f]
            if -1 not in [side[v] for v in poly]:
                del faces[f]
                for v in poly:
                    incident[v].discard(f)
                continue
            clipped, prev = [], poly[-1]
            for cur in poly:
                if side[prev] * side[cur] < 0:
                    key = (prev, cur) if prev < cur else (cur, prev)
                    new_id = edges.setdefault(key, nv + len(edges))
                    if new_id == len(incident):
                        incident.append(set())
                    incident[new_id].add(f)
                    clipped.append(new_id)
                if side[cur] <= 0:
                    clipped.append(cur)
                prev = cur
            faces[f] = clipped

        # new vertices, each interpolated from its edge's lower-index end
        lo, hi = np.array(list(edges), dtype=np.intp).reshape(-1, 2).T
        frac = s[lo] / (s[lo] - s[hi])
        new = V[lo] + frac[:, None] * (V[hi] - V[lo])
        if nv + len(new) > len(V):
            grow = max(2 * len(V), nv + len(new))
            V = np.concatenate([V, np.empty((grow - len(V), 3))])
            live = np.concatenate([live, np.zeros(grow - len(live), dtype=bool)])
        V[nv:nv + len(new)] = new
        live[out_ids] = False
        on = (live[:nv] > inside).nonzero()[0]         # live and on the plane
        live[nv:nv + len(new)] = True
        nv += len(new)

        cap = _cap(V, np.concatenate([on, np.arange(nv - len(new), nv)]), perp, cross)
        faces[next_face] = cap
        for v in cap:
            incident[v].add(next_face)
        next_face += 1
    return V[:nv], list(faces.values()), any(f in faces for f in range(len(_CUBE_FACES)))


def halfspace_hull(planes) -> HullMesh:
    """Intersect halfspaces {x . rho <= h} into a triangulated polytope.

    planes: iterable of (rho, h) with rho a 3-vector (normalized here).
    Raises Unbounded when the intersection is unbounded and Infeasible
    when it is empty or has no interior (see the module docstring).
    """
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
        raise Unbounded("need at least 4 non-degenerate planes")

    first = 4.0 * max(1.0, float(np.max(np.abs(hs))))
    frames = build_frames(rhos)
    cone_checked = False
    for step in range(_MAX_GROWTH_STEPS + 1):
        half = first * _GROWTH**step
        clipped = _clip(rhos, hs, half, frames)
        if clipped is None:
            continue
        V, polys, touches_cube = clipped
        if not touches_cube:
            break
        if not (cone_checked or _recession_cone_is_zero(rhos)):
            raise Unbounded("directions do not positively span R^3")
        cone_checked = True
    else:
        if clipped is None:
            raise Infeasible("halfspace intersection is empty")
        raise Unbounded(f"halfspace intersection extends beyond |x| = {half:.3g}")

    # a mask, not np.unique, which imports numpy.ma on first use
    used = np.zeros(len(V), dtype=bool)
    used[np.fromiter((v for p in polys for v in p), dtype=np.intp)] = True
    used = np.flatnonzero(used)
    remap = np.zeros(len(V), dtype=np.intp)
    remap[used] = np.arange(len(used))
    verts = V[used]
    if float(np.min(hs - rhos @ verts.mean(axis=0))) <= _SLACK_TOL:
        raise Infeasible("halfspace intersection has empty interior")
    faces = remap[np.array([(p[0], p[i], p[i + 1]) for p in polys
                            for i in range(1, len(p) - 1)], dtype=np.intp)]
    return HullMesh(vertices=verts, faces=faces,
                    source_directions=[(r, h) for r, h in zip(rhos, hs)])
