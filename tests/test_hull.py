import tracemalloc

import numpy as np
import pytest

from enclosure.errors import Infeasible, Unbounded
from enclosure.mathkit import build_frame, halfspace_hull
from enclosure.mathkit import hull as hull_module
from enclosure.recon import directions_axes26, directions_fibonacci


def test_axis_cube():
    planes = [(e, 1.0) for e in np.vstack([np.eye(3), -np.eye(3)])]
    mesh = halfspace_hull(planes)
    assert abs(mesh.volume - 8.0) < 1e-9
    assert mesh.max_constraint_violation() < 1e-9
    assert len(mesh.vertices) == 8


def test_unit_ball_support_function():
    dirs = directions_fibonacci(60)
    mesh = halfspace_hull([(d, 1.0) for d in dirs])
    # circumscribed polytope: every vertex slightly outside the unit ball,
    # by no more than the direction-coverage resolution
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.all(norms >= 1.0 - 1e-9)
    assert np.max(norms) < 1.15
    assert abs(mesh.volume - 4.0 * np.pi / 3.0) < 0.15 * 4.0 * np.pi / 3.0


def test_cube_from_its_support_function():
    """h(rho) = sum |rho_i| is the support function of the cube [-1,1]^3."""
    rng = np.random.default_rng(0)

    def run(n):
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        mesh = halfspace_hull([(d, float(np.sum(np.abs(d)))) for d in dirs])
        corners = np.array([[sx, sy, sz] for sx in (-1, 1)
                            for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        # contains the cube
        for c in corners:
            assert all(c @ r <= h + 1e-9 for r, h in mesh.source_directions)
        # support error in random probe directions
        probes = rng.standard_normal((100, 3))
        probes /= np.linalg.norm(probes, axis=1)[:, None]
        errs = [mesh.support(p) - float(np.sum(np.abs(p))) for p in probes]
        assert min(errs) > -1e-9
        return max(errs)

    coarse = run(50)
    fine = run(400)
    assert fine < coarse
    assert fine < 0.2


def test_vertices_satisfy_all_halfspaces():
    dirs = directions_axes26()
    mesh = halfspace_hull([(d, 0.5) for d in dirs])
    for rho, h in mesh.source_directions:
        assert np.max(mesh.vertices @ rho) <= h + 1e-9


def test_watertight_triangulation():
    mesh = halfspace_hull([(d, 1.0) for d in directions_axes26()])
    # every edge appears in exactly two triangles
    from collections import Counter
    edges = Counter()
    for a, b, c in mesh.faces:
        for e in ((a, b), (b, c), (c, a)):
            edges[tuple(sorted(e))] += 1
    assert all(v == 2 for v in edges.values())
    # Euler characteristic of a sphere
    ne = len(edges)
    assert len(mesh.vertices) - ne + len(mesh.faces) == 2


def test_max_constraint_violation_in_bounded_memory():
    """At 2000 planes the full (vertices x planes) product took 128 MB; the
    blocks stay under 16 MB and still reach the last vertex."""
    dirs = directions_fibonacci(2000)
    mesh = halfspace_hull([(d, 0.5) for d in dirs])
    tracemalloc.start()
    try:
        exact = mesh.max_constraint_violation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert 0.0 <= exact < 1e-12
    mesh.vertices[-1] *= 1.5            # the last vertex now breaks its planes
    worst = float(np.max(mesh.vertices[-1] @ dirs.T - 0.5))
    assert mesh.max_constraint_violation() == pytest.approx(worst, rel=1e-12)


def test_unbounded_detection():
    planes = [(np.array([1.0, 0, 0]), 1.0), (np.array([0, 1.0, 0]), 1.0),
              (np.array([0, 0, 1.0]), 1.0), (np.array([-1.0, 0, 0]), 1.0)]
    with pytest.raises(Unbounded):
        halfspace_hull(planes)


def test_infeasible_detection():
    planes = [(e, -1.0) for e in np.vstack([np.eye(3), -np.eye(3)])]
    with pytest.raises(Infeasible):
        halfspace_hull(planes)


def test_too_few_planes():
    # fewer than four halfspaces never bound a region
    with pytest.raises(Unbounded):
        halfspace_hull([(np.array([1.0, 0, 0]), 1.0)])


def test_centroid_of_translated_box():
    shift = np.array([0.3, -0.1, 0.2])
    planes = [(e, 1.0 + float(e @ shift)) for e in np.vstack([np.eye(3), -np.eye(3)])]
    mesh = halfspace_hull(planes)
    assert np.max(np.abs(mesh.centroid() - shift)) < 1e-9


# ---------------------------------------------------------------------------
# scipy's halfspace intersection and convex hull as the oracle


def scipy_hull(planes):
    """Vertices and volume of the intersection by linprog + qhull."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection
    rhos = np.array([np.asarray(r, float) / np.linalg.norm(r) for r, _ in planes])
    hs = np.array([h / np.linalg.norm(r) for r, h in planes])
    # Chebyshev centre: the deepest interior point
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=np.hstack([rhos, np.ones((len(hs), 1))]),
                  b_ub=hs, bounds=[(None, None)] * 3 + [(0, None)], method="highs")
    assert res.success and res.x[3] > 1e-6
    pts = HalfspaceIntersection(np.hstack([rhos, -hs[:, None]]), res.x[:3]).intersections
    # collapse corners where more than three planes meet
    scale = max(1.0, float(np.max(np.abs(pts))))
    _, keep = np.unique(np.round(pts / scale, 9), axis=0, return_index=True)
    hull = ConvexHull(pts[np.sort(keep)])
    return hull.points[hull.vertices], hull.volume


def random_polytope(n, seed):
    """n planes: a perturbed, randomly rotated tetrahedron's face normals
    (so the planes bound) plus n - 4 random ones, at random h in [0.3, 1]."""
    rng = np.random.default_rng(seed)
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    dirs = np.vstack([tetra + 0.1 * rng.standard_normal((4, 3)),
                      rng.standard_normal((n - 4, 3))])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    dirs = dirs @ q.T
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return [(d, float(h)) for d, h in zip(dirs, rng.uniform(0.3, 1.0, n))]


def _box(lo, hi):
    eye = np.eye(3)
    return ([(e, float(h)) for e, h in zip(eye, hi)]
            + [(-e, -float(l)) for e, l in zip(eye, lo)])


ORACLE_CASES = {
    **{f"random N={n} seed={s}": random_polytope(n, s)
       for n in (4, 6, 26, 48, 200) for s in (0, 1)},
    # h = sum |rho_i|: up to seven planes meet at each cube corner, and the
    # edge diagonals touch the cube only along an edge
    "axes26 cube": [(d, float(np.sum(np.abs(d)))) for d in directions_axes26()],
    "axes26 h=0.5": [(d, 0.5) for d in directions_axes26()],
    "duplicated plane": _box([-1, -1, -1], [1, 1, 1]) + [(np.array([0, 0, 2.0]), 2.0)],
    "redundant plane": _box([-1, -1, -1], [1, 1, 1]) + [(np.array([1.0, 1, 1]), 5.0)],
    "translated box": _box([2.5, -3.0, 0.25], [3.5, -1.0, 0.75]),
    # a cut through three cube corners: the corner it removes has no edge
    # that crosses the plane, so the cut makes no new vertex
    "corner cut through vertices": (_box([-1, -1, -1], [1, 1, 1])
                                    + [(np.ones(3), 1.0)]),
    # a wedge from x = 1 back to its apex at x = -20, beyond the first cube
    "long wedge": [(np.array([-0.05, 1, 0]), 1.0), (np.array([-0.05, -1, 0]), 1.0),
                   (np.array([1.0, 0, 0]), 1.0), (np.array([0, 0, 1.0]), 1.0),
                   (np.array([0, 0, -1.0]), 1.0)],
    # a thin prism over the triangle (36, 0.8), (40, 1), (44, 1.3): every
    # |h| <= 2, yet it lies wholly outside the first cube
    "far prism": [(np.array([0.05, -1, 0]), 1.0), (np.array([0.075, -1, 0]), 2.0),
                  (np.array([-0.0625, 1, 0]), -1.45), (np.array([0, 0, 1.0]), 1.0),
                  (np.array([0, 0, -1.0]), 1.0)],
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_hull_matches_scipy(name):
    planes = ORACLE_CASES[name]
    mesh = halfspace_hull(planes)
    ref_verts, ref_volume = scipy_hull(planes)
    assert len(mesh.vertices) == len(ref_verts)
    dist = np.linalg.norm(mesh.vertices[:, None, :] - ref_verts[None, :, :], axis=2)
    assert dist.min(axis=1).max() <= 1e-12
    assert dist.min(axis=0).max() <= 1e-12
    assert abs(mesh.volume - ref_volume) <= 1e-12 * ref_volume
    assert mesh.max_constraint_violation() <= 1e-12


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_mesh_is_closed_and_outward(name):
    mesh = halfspace_hull(ORACLE_CASES[name])
    f = mesh.faces
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    # every directed edge once, and its reverse once: closed and consistently
    # oriented; the positive volume then makes the orientation outward
    assert len({tuple(e) for e in directed.tolist()}) == len(directed)
    assert {tuple(e) for e in directed.tolist()} == {tuple(e) for e in directed[:, ::-1].tolist()}
    normals = np.cross(mesh.vertices[f[:, 1]] - mesh.vertices[f[:, 0]],
                       mesh.vertices[f[:, 2]] - mesh.vertices[f[:, 0]])
    assert np.all(np.linalg.norm(normals, axis=1) > 0.0)
    assert mesh.volume > 0.0


def test_rank_two_normals_unbounded():
    """Normals in the xy-plane bound a prism that is open along z."""
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    planes = [(np.array([np.cos(a), np.sin(a), 0.0]), 1.0) for a in angles]
    with pytest.raises(Unbounded, match="positively span"):
        halfspace_hull(planes)


def test_zero_thickness_slab_infeasible():
    planes = [(e, 0.0) for e in np.vstack([np.eye(3), -np.eye(3)])]
    with pytest.raises(Infeasible):
        halfspace_hull(planes)


# ---------------------------------------------------------------------------
# vertex compaction: the clipped vertices that some face uses, in index order


def _unique_compaction(V, polys):
    """The used vertices and fan triangles, compacted with np.unique."""
    used = np.unique(np.fromiter((v for p in polys for v in p), dtype=np.intp))
    remap = np.zeros(len(V), dtype=np.intp)
    remap[used] = np.arange(len(used))
    tris = np.array([(p[0], p[i], p[i + 1]) for p in polys
                     for i in range(1, len(p) - 1)], dtype=np.intp)
    return V[used], remap[tris]


COMPACTION_CASES = {**ORACLE_CASES,
                    **{f"random seed={s}": random_polytope(4 + (7 * s) % 97, 100 + s)
                       for s in range(50)}}


@pytest.mark.parametrize("name", list(COMPACTION_CASES))
def test_vertex_compaction_matches_unique(name, monkeypatch):
    clips = []
    clip = hull_module._clip
    monkeypatch.setattr(hull_module, "_clip",
                        lambda *a: clips.append(clip(*a)) or clips[-1])
    mesh = halfspace_hull(COMPACTION_CASES[name])
    V, polys, _ = clips[-1]
    assert len(mesh.vertices) < len(V)        # some vertex was dropped
    verts, faces = _unique_compaction(V, polys)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, faces)


# ---------------------------------------------------------------------------
# the clipper against its first, list-based form


def _reference_clip(rhos, hs, half):
    """The clipper as first written: faces in a list, every face flattened
    on every plane to find the cut ones, one `build_frame` per cap."""
    tol = hull_module._SIDE_TOL * half
    V = np.empty((64, 3))
    V[:8] = half * hull_module._CUBE
    nv = 8
    live = np.zeros(64, dtype=bool)
    live[:8] = True
    faces = [list(f) for f in hull_module._CUBE_FACES]
    is_cube = [True] * len(faces)
    for rho, h in zip(rhos, hs):
        s = V[:nv] @ rho - h
        out = (s > tol) & live[:nv]
        if not out.any():
            continue
        inside = (s < -tol) & live[:nv]
        if not inside.any():
            return None
        flat = np.fromiter((v for f in faces for v in f), dtype=np.intp)
        starts = np.cumsum([0] + [len(f) for f in faces[:-1]])
        hit = np.flatnonzero(np.maximum.reduceat(out[flat], starts))
        side = np.where(out, 1, np.where(inside, -1, 0)).tolist()
        edges, dropped = {}, []
        for f in hit.tolist():
            poly = faces[f]
            if not any(side[v] < 0 for v in poly):
                dropped.append(f)
                continue
            clipped, prev = [], poly[-1]
            for cur in poly:
                if side[prev] * side[cur] < 0:
                    key = (prev, cur) if prev < cur else (cur, prev)
                    clipped.append(edges.setdefault(key, nv + len(edges)))
                if side[cur] <= 0:
                    clipped.append(cur)
                prev = cur
            faces[f] = clipped
        lo, hi = np.array(list(edges), dtype=np.intp).reshape(-1, 2).T
        frac = s[lo] / (s[lo] - s[hi])
        new = V[lo] + frac[:, None] * (V[hi] - V[lo])
        if nv + len(new) > len(V):
            grow = max(2 * len(V), nv + len(new))
            V = np.concatenate([V, np.empty((grow - len(V), 3))])
            live = np.concatenate([live, np.zeros(grow - len(live), dtype=bool)])
        V[nv:nv + len(new)] = new
        live[:nv] &= ~out
        on = np.flatnonzero(live[:nv] & ~inside)
        live[nv:nv + len(new)] = True
        nv += len(new)
        for f in reversed(dropped):
            del faces[f], is_cube[f]
        ids = np.concatenate([on, np.arange(nv - len(new), nv)])
        frame = build_frame(rho)
        p = V[ids] - V[ids].mean(axis=0)
        angle = np.arctan2(p @ frame.rho_cross, p @ frame.rho_perp)
        faces.append(ids[np.argsort(angle, kind="stable")].tolist())
        is_cube.append(False)
    return V[:nv], faces, any(is_cube)


REFERENCE_CASES = {**COMPACTION_CASES,
                   "fibonacci 400": [(d, 0.5) for d in directions_fibonacci(400)]}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_clipper_matches_reference_bit_for_bit(name, monkeypatch):
    """Every cut the hull makes, growth steps included, gives the list-based
    clipper's vertices bit for bit and its face polygons in its order."""
    calls = []
    clip = hull_module._clip
    monkeypatch.setattr(hull_module, "_clip", lambda *a: calls.append(a) or clip(*a))
    halfspace_hull(REFERENCE_CASES[name])
    assert calls
    for rhos, hs, half, frames in calls:
        got, want = clip(rhos, hs, half, frames), _reference_clip(rhos, hs, half)
        if want is None:
            assert got is None
            continue
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
