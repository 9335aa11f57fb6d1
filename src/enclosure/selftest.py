"""Built-in invariant suites behind `enclosure selftest`.

Each suite re-runs one of the structural checks (algebraic CGO identities,
quadrature exactness, jump relations, forward-vs-layer-potential agreement,
the scaling identity) and reports pass/fail with timing.  A deliberate
sign-flip hook on M_k lets the harness verify that the jump oracle
actually has teeth.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from . import layerpot
from .cgo import CgoMode, build_probe, cgo_identity_defect, eval_cgo_batch
from .conventions import POL_U, POL_V, TE, TM
from .forward import Geometry, solution_empty, solution_pec
from .indicator import cgo_trace, indicator_value, trace_energies
from .mathkit import (VshCoeffs, build_frame, get_transform, scaled,
                      sphere_quadrature)


def _check_scaled_arithmetic():
    rng = np.random.default_rng(11)
    worst_mul = 0.0
    worst_add = 0.0
    for _ in range(500):
        a = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-8, 8)
        b = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-8, 8)
        sa, sb = scaled(a, 0.0), scaled(b, 0.0)
        prod = sa * sb
        ref = scaled(a * b, 0.0)
        if a * b != 0:
            ratio = (prod.mantissa / ref.mantissa) * math.exp(prod.exponent - ref.exponent)
            worst_mul = max(worst_mul, abs(ratio - 1.0))
        ssum = (sa + sb).to_complex()
        worst_add = max(worst_add, abs(ssum - (a + b)) / (abs(a) + abs(b)))
    assert worst_mul < 1e-13, f"scaled multiplication error {worst_mul:.2e}"
    assert worst_add < 1e-13, f"scaled addition error {worst_add:.2e}"
    return f"mul {worst_mul:.1e}, add {worst_add:.1e}"


def _check_frames():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        f = build_frame(rng.standard_normal(3))
        g = np.array([f.rho, f.rho_perp, f.rho_cross])
        worst = max(worst, float(np.max(np.abs(g @ g.T - np.eye(3)))))
    assert worst < 1e-14, f"frame orthonormality defect {worst:.2e}"
    return f"max defect {worst:.1e}"


def _check_quadrature():
    grid = sphere_quadrature(8)
    total = float(np.sum(grid.weights))
    assert abs(total - 4.0 * math.pi) < 1e-12
    tr = get_transform(8)
    c = VshCoeffs.single_mode(8, 5, 2, POL_V)
    f = tr.synthesize(c)
    energy = float(np.sum(grid.weights * np.einsum("ni,ni->n", f, f.conj()).real))
    assert abs(energy - 1.0) < 1e-11, f"mode energy {energy}"
    return "area + mode orthonormality"


def _check_vsh_roundtrip():
    L = 10
    tr = get_transform(L)
    rng = np.random.default_rng(7)
    c = VshCoeffs.zeros(L)
    for l in range(1, L + 1):
        for m in range(-l, l + 1):
            c.data[:, l, m + L] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    back = tr.analyze(tr.synthesize(c))
    err = float(np.max(np.abs(back.data - c.data)) / np.max(np.abs(c.data)))
    assert err < 1e-10, f"roundtrip error {err:.2e}"
    return f"rel err {err:.1e}"


def _check_cgo_algebra():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        k = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(1.0, 50.0))
        mode = CgoMode.IMPENETRABLE if rng.random() < 0.5 else CgoMode.PENETRABLE
        p = build_probe(k, tau, 0.0, rng.standard_normal(3), mode)
        worst = max(worst, cgo_identity_defect(p))
    assert worst < 1e-12, f"CGO identity defect {worst:.2e}"
    return f"max rel defect {worst:.1e}"


def _check_cgo_maxwell_fd():
    p = build_probe(1.3, 4.0, 0.0, np.array([0.2, -0.5, 0.9]), CgoMode.IMPENETRABLE)
    rng = np.random.default_rng(17)
    h = 1e-6
    steps = h * np.eye(3)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(3) * 0.2
        x -= p.frame.rho * (x @ p.frame.rho)     # keep exponent ~ 0
        ep, _ = eval_cgo_batch(p, x + steps, 0.0)
        em, _ = eval_cgo_batch(p, x - steps, 0.0)
        jac = (ep - em) / (2 * h)                # jac[j, i] = d E_i / d x_j
        curl = np.array([jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2],
                         jac[0, 1] - jac[1, 0]])
        ref = 1j * p.k * eval_cgo_batch(p, x[None], 0.0)[1][0]
        worst = max(worst, float(np.max(np.abs(curl - ref)) / np.max(np.abs(ref))))
    assert worst < 1e-6, f"FD Maxwell residual {worst:.2e}"
    return f"max rel residual {worst:.1e}"


def _check_jump_relation():
    k, R, L = 1.0, 0.5, 8
    rng = np.random.default_rng(19)
    c = VshCoeffs.zeros(L)
    for l in range(1, L + 1):
        for m in range(-l, l + 1):
            c.data[:, l, m + L] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = layerpot.SurfaceDensity(R, c)
    ext = layerpot.nu_wedge_h_limit(k, f, "exterior")
    m_u, m_v = layerpot.mk_symbols(k, R, L)
    want = c.copy()
    want.data[POL_U] *= (-0.5 + m_u)[:, None]
    want.data[POL_V] *= (-0.5 + m_v)[:, None]
    err = float(np.max(np.abs(ext.data - want.data)) / np.max(np.abs(want.data)))
    assert err < 1e-5, f"exterior jump defect {err:.2e}"
    return f"extrapolated defect {err:.1e}"


def pec_entries_via_layerpot(k: float, geometry: Geometry, L: int,
                             l_max: int = 5) -> np.ndarray:
    """PEC impedance entries rebuilt through the layer-potential composite.

    Per mode: incident entire field + radiating correction enforcing
    nu^H = 0 on the obstacle; the entry is the trace-coefficient ratio on
    the outer sphere.  Completely bypasses the annulus two-point solve.
    """
    tr = get_transform(L)
    grid = tr.grid
    empty = solution_empty(k, geometry.r_domain, L)
    out = np.zeros((2, l_max + 1), dtype=complex)
    for pol in (TE, TM):
        for l0 in range(1, l_max + 1):
            m0 = 1 if l0 >= 1 else 0
            amp_te = np.zeros((L + 1, 2 * L + 1), dtype=complex)
            amp_tm = np.zeros_like(amp_te)
            (amp_te if pol == TE else amp_tm)[l0, m0 + L] = 1.0
            # incident trace on the obstacle sphere
            _, h_in = empty.fields_on_shell(amp_te, amp_tm, geometry.r_obstacle, tr)
            rhs = tr.analyze(np.cross(grid.nodes, -h_in))
            dens = layerpot.solve_exterior(k, geometry.r_obstacle,
                                           layerpot.SurfaceDensity(geometry.r_obstacle, rhs))
            pts = geometry.r_domain * grid.nodes
            h_sc, e_sc = layerpot.eval_exterior_fields(k, dens, pts)
            e_in, h_out = empty.fields_on_shell(amp_te, amp_tm, geometry.r_domain, tr)
            ce = tr.analyze(np.cross(grid.nodes, e_in + e_sc))
            ch = tr.analyze(np.cross(grid.nodes, h_out + h_sc))
            if pol == TE:
                out[TE, l0] = ch.data[POL_V, l0, m0 + L] / ce.data[POL_U, l0, m0 + L]
            else:
                out[TM, l0] = ch.data[POL_U, l0, m0 + L] / ce.data[POL_V, l0, m0 + L]
    return out


def _check_forward_vs_layerpot():
    k, L = 1.0, 12
    geom = Geometry(0.5, 1.0)
    composite = pec_entries_via_layerpot(k, geom, L, l_max=5)
    direct = solution_pec(k, geom, L).operator.lam
    rel = np.abs(composite[:, 1:6] - direct[:, 1:6]) / np.abs(direct[:, 1:6])
    err = float(np.max(rel))
    assert err < 1e-6, f"composite/direct mismatch {err:.2e}"
    return f"l<=5 max rel {err:.1e}"


def _check_scaling_identity():
    k, L = 1.0, 40
    geom = Geometry(0.5, 1.0)
    sol = solution_pec(k, geom, L)
    worst = 0.0
    for tau in (6.0, 10.0):
        for t1, t2 in ((0.2, 0.8), (0.0, 1.0)):
            p1 = build_probe(k, tau, t1, np.array([0.0, 0.0, 1.0]),
                             CgoMode.IMPENETRABLE)
            i1 = indicator_value(sol.operator, p1)
            i2 = indicator_value(sol.operator, p1.with_t(t2))
            shifted = i1.scale_exp(2.0 * tau * (t1 - t2))
            diff = (i2 - shifted)
            rel = diff.abs() / i2.abs()
            worst = max(worst, rel)
    assert worst < 1e-12, f"scaling identity defect {worst:.2e}"
    return f"max rel defect {worst:.1e}"


def _check_closed_form_energies():
    """Closed-form trace energies, which take no direction, against the VSH
    analysis of the sampled trace of one probe.  The analysis runs at 2L:
    at L itself the tau = 10 trace is not band-limited, and its top degrees
    alias.  k = 2.5 catches a wrong power of k, which k = 1 hides."""
    L, tau = 24, 10.0
    worst = 0.0
    for k, mode in [(k, mode) for k in (1.0, 2.5) for mode in CgoMode]:
        p = build_probe(k, tau, 0.0, np.array([0.3, -0.4, 0.8]), mode)
        closed = trace_energies(k, tau, mode, 1.0, L)
        ref = cgo_trace(p, 1.0, 2 * L)[0].degree_energies()[:, :L + 1]
        carried = ref > 1e-12 * ref.sum()
        worst = max(worst, float(np.max(np.abs(closed - ref)[carried] / ref[carried])))
    assert worst < 1e-8, f"closed-form energy defect {worst:.2e}"
    return f"max rel {worst:.1e}"


SUITES = [
    ("scaled-arithmetic", _check_scaled_arithmetic),
    ("frame-orthonormality", _check_frames),
    ("sphere-quadrature", _check_quadrature),
    ("vsh-roundtrip", _check_vsh_roundtrip),
    ("cgo-algebra", _check_cgo_algebra),
    ("cgo-maxwell-fd", _check_cgo_maxwell_fd),
    ("jump-relation", _check_jump_relation),
    ("forward-vs-layerpot", _check_forward_vs_layerpot),
    ("scaling-identity", _check_scaling_identity),
    ("closed-form-energies", _check_closed_form_energies),
]


def run_selftest(inject: str | None = None, out=print) -> bool:
    """Run every suite; returns True when all pass.  inject='mk-sign-flip'
    corrupts the M_k symbols for the duration (the checks must then fail)."""
    ok = True
    ctx = (layerpot.mk_sign_flip() if inject == "mk-sign-flip"
           else contextlib.nullcontext())
    with ctx:
        for name, fn in SUITES:
            start = time.perf_counter()
            try:
                detail = fn()
                status = "PASS"
            except AssertionError as exc:
                detail = str(exc)
                status = "FAIL"
                ok = False
            except Exception as exc:   # solver guards etc. still count as failures
                detail = f"{type(exc).__name__}: {exc}"
                status = "FAIL"
                ok = False
            dt = time.perf_counter() - start
            out(f"{status:4s} {name:24s} {dt:7.3f}s  {detail}")
    return ok
