import numpy as np
import pytest

from enclosure.errors import ZeroVector
from enclosure.mathkit import build_frame, cross3
from enclosure.mathkit.frames import build_frames


def _orthonormality_defect(frame):
    g = np.array([frame.rho, frame.rho_perp, frame.rho_cross])
    return float(np.max(np.abs(g @ g.T - np.eye(3))))


def test_north_pole_uses_tie_rule():
    f = build_frame([0.0, 0.0, 1.0])
    # least-aligned axis is e_x by the x<y<z tie rule; perp = normalize(e_x x rho)
    assert np.allclose(f.rho_perp, [0.0, -1.0, 0.0], atol=1e-15)
    assert _orthonormality_defect(f) < 1e-14


def test_x_axis():
    f = build_frame([1.0, 0.0, 0.0])
    assert abs(f.rho_perp @ f.rho) < 1e-15
    assert abs(np.linalg.norm(f.rho_perp) - 1.0) < 1e-15


def test_diagonal_direction():
    f = build_frame(np.ones(3) / np.sqrt(3.0))
    assert _orthonormality_defect(f) < 1e-14


def test_cross_is_exact_cross_product():
    f = build_frame([0.3, -0.8, 0.52])
    assert np.array_equal(f.rho_cross, np.cross(f.rho, f.rho_perp))


def test_orthonormality_random_directions():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        v = rng.standard_normal(3)
        if np.linalg.norm(v) < 1e-6:
            continue
        worst = max(worst, _orthonormality_defect(build_frame(v)))
    assert worst < 1e-14


def test_determinism():
    a = build_frame([0.1, 0.2, 0.97])
    b = build_frame([0.1, 0.2, 0.97])
    assert np.array_equal(a.rho_perp, b.rho_perp)


def test_zero_vector_raises():
    with pytest.raises(ZeroVector):
        build_frame([0.0, 0.0, 0.0])
    with pytest.raises(ZeroVector):
        build_frame([1e-13, 0.0, 0.0])


@pytest.mark.parametrize("kinds", ["real real", "complex complex", "complex real",
                                   "real complex"])
def test_cross3_is_np_cross_bit_for_bit(kinds):
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = (rng.standard_normal(3) * 10.0 ** rng.integers(-4, 5)
                + (1j * rng.standard_normal(3) if kind == "complex" else 0.0)
                for kind in kinds.split())
        ref = np.cross(a, b)
        got = cross3(a, b)
        assert got.dtype == ref.dtype
        assert np.array_equal(got.view(float), ref.view(float))


def _reference_frame(rho):
    """build_frame as first written: one vector, np.linalg.norm, np.cross."""
    rho = np.asarray(rho, dtype=float)
    rho = rho / float(np.linalg.norm(rho))
    axis = np.eye(3)[int(np.argmin(np.abs(rho)))]
    perp = np.cross(axis, rho)
    perp /= np.linalg.norm(perp)
    return rho, perp, np.cross(rho, perp)


def test_build_frames_match_the_one_vector_rule_bit_for_bit():
    """The batched triads equal the one-vector rule, signed zeros included:
    random vectors, the axes and ties of the least-aligned axis."""
    rng = np.random.default_rng(9)
    rows = np.vstack([rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-3, 4, (2000, 1)),
                      np.eye(3), -np.eye(3), [[1.0, 1.0, 0.0], [0.0, -0.0, 1.0],
                                              [-2.0, 2.0, 2.0], [1e-3, 0.0, 0.0]]])
    got = build_frames(rows)
    for i, v in enumerate(rows):
        for a, b in zip((g[i] for g in got), _reference_frame(v)):
            assert a.tobytes() == b.tobytes()
