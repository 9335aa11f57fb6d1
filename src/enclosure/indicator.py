"""Indicator functional I_rho(tau, t) and its volume cross-checks.

The indicator pairs the CGO trace with the impedance-difference response:
    I = ik tau * integral over the outer sphere of
        (nu^E0) . conj(((Lambda_D - Lambda_empty)(nu^E0)) ^ nu) dS.
Computed entirely in coefficient space (Parseval), with the CGO's
exponential magnitude peeled into a shared log-scale so sweeps stay exact
far beyond the double range.  The sum needs only the degree energies of
the trace: the engine takes them in closed form (`trace_energies`), while
`cgo_trace` analyzes the sampled trace and stays the independent path of
the tests, the selftest and the volume oracles.  Energy identities relate
-I/tau to volume integrals of the probe and scattered fields; both
assemblies live here as independent computation paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cgo import CgoMode, CgoProbe, ball_weight, eval_cgo_batch
from .conventions import POL_U, POL_V, TE, TM
from .errors import PoleAtZero, QuadratureUnderResolved, TruncationInsufficient
from .forward import (FieldSolution, Geometry, ImpedanceOperator, Medium,
                      solution_pec, solution_transmission)
from .mathkit import ScaledComplex, VshCoeffs, normalize
from .mathkit.bessel import riccati_j_logs
from .mathkit.vsh import VshTransform, get_transform, tail_fraction

DEFAULT_TAIL_TOL = 1e-8
_LN2 = math.log(2.0)


def auto_degree(max_tau: float, k: float, r_domain: float) -> int:
    """Truncation rule: enough degrees to resolve the CGO trace at max_tau."""
    return int(math.ceil(1.5 * math.hypot(max_tau, k) * r_domain)) + 10


@dataclass(eq=False)
class IndicatorTable:
    """I_rho(tau, t) at every (direction, t, tau) of a sweep, as arrays.

    Sample (i, j, k) is mantissa * exp(exponent) at rhos[i], ts[j] and
    taus[k], with the fields that `mathkit.scaled` gives (exponent 0 for a
    zero value); `tail` is the trace tail of the sample and `trusted` says
    that tail is within tolerance.  The sample fields broadcast to `shape`;
    a field that a source computes once for every direction has length 1
    on axis 0, as every field of the concentric source does.  A value that
    is not finite is never trusted, whatever the tail says.
    """

    rhos: np.ndarray          # (directions, 3)
    taus: np.ndarray          # (tau,)
    ts: np.ndarray            # (t,)
    mantissa: np.ndarray      # complex
    exponent: np.ndarray
    tail: np.ndarray
    trusted: np.ndarray       # bool

    def __post_init__(self):
        self.trusted = (np.asarray(self.trusted, dtype=bool)
                        & np.isfinite(self.mantissa) & np.isfinite(self.exponent))

    @property
    def shape(self) -> tuple:
        return len(self.rhos), len(self.ts), len(self.taus)

    def ln_abs(self) -> np.ndarray:
        """ln|I|, -inf for a zero value, broadcastable to `shape`.

        ln|mantissa| is math.log(abs(m)) per entry, the arithmetic of
        `ScaledComplex.ln_abs`; np.log and np.abs differ from it in the
        last bit on some values.
        """
        m = self.mantissa
        log_mag = np.reshape([math.log(abs(v)) if v else -math.inf
                              for v in m.ravel().tolist()], m.shape)
        return np.where(m == 0, -math.inf, self.exponent + log_mag)


# ---------------------------------------------------------------------------
# trace and boundary indicator


def cgo_trace(probe: CgoProbe, r_domain: float, L: int,
              transform: VshTransform | None = None,
              tail_tol: float | None = None) -> tuple[VshCoeffs, float]:
    """VSH coefficients of nu^E0 on the outer sphere, exponent peeled.

    The returned coefficients carry ln_scale = tau (r_domain - t); their
    mantissas do not depend on t at all, which is what makes the scaling
    identity in t exact.  Raises TruncationInsufficient when the tail
    energy fraction exceeds tail_tol.
    """
    tr = transform if transform is not None else get_transform(L)
    grid = tr.grid
    # mantissa field exp(tau R (x^.rho - 1) + i phase): t enters ln_scale only,
    # so traces at different t share bit-identical mantissas
    xr = grid.nodes @ probe.frame.rho
    xp = grid.nodes @ probe.frame.rho_perp
    factor = np.exp(probe.tau * r_domain * (xr - 1.0)
                    + 1j * probe.phase_wavenumber * r_domain * xp)
    # nu ^ (eta factor), component by component
    x, y, z = grid.nodes.T
    ex, ey, ez = probe.eta
    trace = np.empty((grid.n_nodes, 3), dtype=complex)
    trace[:, 0] = (y * ez - z * ey) * factor
    trace[:, 1] = (z * ex - x * ez) * factor
    trace[:, 2] = (x * ey - y * ex) * factor
    coeffs = tr.analyze(trace)
    coeffs.ln_scale = probe.tau * (r_domain - probe.t)
    tail = coeffs.tail_fraction()
    if tail_tol is not None and tail > tail_tol:
        raise TruncationInsufficient(
            f"trace tail {tail:.2e} above {tail_tol:.1e}; raise L")
    return coeffs, tail


def trace_radial_logs(k: float, r_domain: float, L: int) -> np.ndarray:
    """The tau-independent factors of the trace energies, in log scale.

    Row POL_U holds log((4 pi)^2 (2l+1) / (4 pi l (l+1)) j_l(kR)^2) and row
    POL_V the same with psi_l'(kR) / kR in place of j_l(kR); degree 0 is
    -inf (the tangential trace has no l = 0 part).
    """
    log_j, log_dpsi = riccati_j_logs(L, k * r_domain)
    ell = np.arange(1, L + 1)
    out = np.full((2, L + 1), -np.inf)
    base = np.log(4.0 * math.pi * (2 * ell + 1) / (ell * (ell + 1.0)))
    out[POL_U, 1:] = base + 2.0 * log_j[1:]
    out[POL_V, 1:] = base + 2.0 * log_dpsi[1:]
    return out


def _legendre_derivatives(s: float, L: int):
    """(P_l'(s), P_l''(s), ln_shift) for l = 1..L (L >= 1) at s >= 1; each
    value is the returned mantissa times exp(ln_shift).

    P_l by the upward three-term recurrence (stable for s > 1, where P_l
    is the dominant solution), its derivatives by the all-positive
    recurrences P'_{l+1} = P'_{l-1} + (2l+1) P_l and
    P''_{l+1} = P''_{l-1} + (2l+1) P'_l.  A running power-of-two rescale
    keeps the mantissas finite: P_l'(s) reaches 1e384 at s = 5001, l = 96.
    """
    p0, p1, q0, q1, r0, r1 = 1.0, s, 0.0, 1.0, 0.0, 0.0    # degrees 0 and 1
    d1, d2, nbits = [q1], [r1], [0]
    shift = 0
    for l in range(1, L):
        n = 2 * l + 1
        p0, p1 = p1, (n * s * p1 - l * p0) / (l + 1)
        q0, q1 = q1, q0 + n * p0
        r0, r1 = r1, r0 + n * q0
        _, e = math.frexp(max(p1, q1, r1))
        if e > 512:
            f = math.ldexp(1.0, -e)
            p0, p1, q0, q1, r0, r1 = p0 * f, p1 * f, q0 * f, q1 * f, r0 * f, r1 * f
            shift += e
        d1.append(q1)
        d2.append(r1)
        nbits.append(shift)
    return np.array(d1), np.array(d2), np.array(nbits) * _LN2


def _trace_weights(k: float, tau: float, mode: CgoMode):
    """(a, b) = (|u|^2 / k^2, |u.conj(zeta)|^2 / k^4), u = w x zeta, of the
    U and then the V energies: rotation invariants of the probe, fixed by
    (k, tau, mode).  |eta|^2 is k^2 for the impenetrable probe and
    k^2 (1 + 2 k^2 tau^2 / |zeta|^4) for the penetrable one.  Raises
    PoleAtZero when k^4 underflows: the weights have a pole at k = 0."""
    k2, zeta2 = k * k, 2.0 * tau * tau + k * k
    if k2 * k2 < sys.float_info.min:
        raise PoleAtZero(f"the trace weights divide by k^4, which underflows at k = {k:.3g}")
    tilt = 4.0 * tau * tau * (tau * tau + k2) / (k2 * k2)
    if mode is CgoMode.IMPENETRABLE:
        return (k2, 0.0), (zeta2, k2 * tilt)
    eta2 = k2 * (1.0 + 2.0 * k2 * tau * tau / (zeta2 * zeta2))
    return (eta2 * zeta2 / k2, eta2 * tilt), (eta2, 0.0)


def trace_energies(k: float, tau: float, mode: CgoMode, r_domain: float, L: int,
                   radial: np.ndarray | None = None) -> np.ndarray:
    """Degree energies sum_m |h_lm|^2 of the nu^E0 trace, in closed form.

    Returns the (2, L+1) U/V energies on the mantissa scale of
    `cgo_trace(...).degree_energies()`, that is, times exp(-2 tau R):
        U_l = (4 pi)^2 j_l(kR)^2 A_l(eta),
        V_l = (4 pi)^2 (psi_l'(kR) / kR)^2 A_l(zeta x eta / k),
        A_l(w) = (2l+1) / (4 pi l (l+1)) (a P_l'(s) + b P_l''(s)),
    with (a, b) = `_trace_weights(k, tau, mode)` and s = zeta.conj(zeta) / k^2.
    This is the addition theorem for the solid harmonics, continued to the
    complex wave vector zeta and differentiated along u = w x zeta and
    conj(u); no direction enters.  Each degree costs O(1) and the result is
    exact.  `radial` is `trace_radial_logs(k, r_domain, L)`, computed here
    if None.  Raises PoleAtZero when k is so small next to tau that the
    weights or a P_l' + b P_l'' leave the double range.
    """
    if radial is None:
        radial = trace_radial_logs(k, r_domain, L)
    weights = _trace_weights(k, tau, mode)
    d1, d2, ln_shift = _legendre_derivatives((2.0 * tau * tau + k * k) / (k * k), L)
    # a, b, d1 and d2 are >= 0: a max(d1) + b max(d2) bounds every a d1 + b d2
    top1, top2 = float(np.max(d1)), float(np.max(d2))
    if not all(math.isfinite(a * top1 + b * top2) for a, b in weights):
        raise PoleAtZero(f"the trace weights at tau / k = {tau / k:.3g} "
                         "leave the double range")
    out = np.zeros((2, L + 1))
    for pol, (a, b) in zip((POL_U, POL_V), weights):
        out[pol, 1:] = np.exp(radial[pol, 1:] + ln_shift - 2.0 * tau * r_domain
                              + np.log(a * d1 + b * d2))
    return out


def _degree_sum(dlam: np.ndarray, k: float, tau: float, r_domain: float,
                energies: np.ndarray, ln_scale: float) -> tuple[complex, float]:
    """exp(ln_scale) ik tau R^2 sum_l [conj(dlam_TE) U_l - conj(dlam_TM) V_l],
    as the (mantissa, exponent) fields of a scaled number.

    The terms are rescaled by the exact power of two of the largest (by
    2**1021 at most, for a subnormal one) and summed once.
    """
    terms = 1j * k * tau * r_domain**2 * (
        np.conj(dlam[TE]) * energies[POL_U] - np.conj(dlam[TM]) * energies[POL_V])
    _, nbits = math.frexp(float(np.max(np.abs(terms))))
    nbits = max(nbits, -1021)
    total = complex(np.sum(terms * math.ldexp(1.0, -nbits)))
    return normalize(total, ln_scale + nbits * _LN2)


def indicator_value(op: ImpedanceOperator, probe: CgoProbe,
                    trace: VshCoeffs | None = None,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> ScaledComplex:
    """I_rho(tau, t) as a scaled complex number.

    The Parseval form per degree l is
        ik tau R^2 [ conj(dlam_TE) sum_m |h_U|^2 - conj(dlam_TM) sum_m |h_V|^2 ]
    where h is the nu^E0 trace and dlam = `op.diff_empty`, the operator
    difference to the empty map.
    """
    if trace is None:
        trace, _ = cgo_trace(probe, op.r_domain, op.L, tail_tol=tail_tol)
    return ScaledComplex(*_degree_sum(op.diff_empty, probe.k, probe.tau, op.r_domain,
                                      trace.degree_energies(), 2.0 * trace.ln_scale))


# ---------------------------------------------------------------------------
# sweep engine


class IndicatorEngine:
    """(tau, t, rho) sweeps of one impedance operator, read by one probe
    family; the radial factors of the trace are assembled once."""

    def __init__(self, op: ImpedanceOperator, mode: CgoMode,
                 tail_tol: float = DEFAULT_TAIL_TOL):
        self.op, self.mode, self.tail_tol = op, mode, tail_tol
        self.L = op.L
        self.radial = trace_radial_logs(op.k, op.r_domain, self.L)

    def sweep(self, rhos, taus, ts) -> IndicatorTable:
        """The indicator at every (direction, t, tau).  The concentric
        indicator depends on (tau, t) alone: one set of trace energies per
        tau and one value per (tau, t), computed at shape (1, t, tau) and
        shared by every direction.

        A sample is trusted when its tail is within tolerance and ln|I| is
        finite.  A trace whose energies all underflow has a tail of 0 but
        gives I = 0, so it is not trusted."""
        op, R = self.op, self.op.r_domain
        taus = np.array(taus, dtype=float)
        ts = np.array(ts, dtype=float)
        mantissa = np.empty((1, len(ts), len(taus)), dtype=complex)
        exponent = np.empty(mantissa.shape)
        tail = np.empty((1, 1, len(taus)))
        for k, tau in enumerate(taus.tolist()):
            energies = trace_energies(op.k, tau, self.mode, R, self.L, self.radial)
            tail[0, 0, k] = tail_fraction(energies)
            for j, t in enumerate(ts.tolist()):
                mantissa[0, j, k], exponent[0, j, k] = _degree_sum(
                    op.diff_empty, op.k, tau, R, energies, 2.0 * (tau * (R - t)))
        trusted = (tail <= self.tail_tol) & (mantissa != 0)
        return IndicatorTable(rhos=np.asarray(rhos, dtype=float), taus=taus, ts=ts,
                              mantissa=mantissa, exponent=exponent, tail=tail,
                              trusted=trusted)


# ---------------------------------------------------------------------------
# volume assemblies (energy-identity cross checks)


def _ball_weight(probe: CgoProbe, geometry: Geometry, peel: float) -> float:
    """integral over the obstacle ball of exp(2 tau (x.rho - t) - 2 peel)."""
    r_obs = geometry.r_obstacle
    ball_peel = probe.tau * (r_obs - probe.t)
    return ball_weight(2.0 * probe.tau, r_obs) * math.exp(2.0 * (ball_peel - peel))


def _volume_side(probe: CgoProbe, geometry: Geometry, op_d: ImpedanceOperator,
                 solution: FieldSolution, ball_density: float, shells,
                 check: bool) -> float:
    """-tau * (ball_density * ball weight + scattered shell energy).

    Each shell (lo, hi, mu, n_radial) contributes, by radial Gauss-Legendre
    times the spherical grid in peeled arithmetic,
        integral of k^2 |E - E0|^2 - (1/mu) |ik (mu H - H0)|^2,
    where ik (mu H - H0) = curl (E - E0).  With check, the radial rules are
    doubled and QuadratureUnderResolved is raised unless the shell energy
    moves by at most 1e-6 relative.
    """
    k = op_d.k
    transform = get_transform(op_d.L)
    grid = transform.grid
    trace, _ = cgo_trace(probe, geometry.r_domain, op_d.L, transform)
    peel = trace.ln_scale    # tau (R - t)
    amp_te, amp_tm = solution.amplitudes(trace)

    def shell_energy(doubling):
        total = 0.0
        for lo, hi, mu, n_radial in shells:
            rx, rw = np.polynomial.legendre.leggauss(doubling * n_radial)
            rr = 0.5 * (hi - lo) * rx + 0.5 * (hi + lo)
            for r, wr in zip(rr, 0.5 * (hi - lo) * rw):
                e_sol, h_sol = solution.fields_on_shell(amp_te, amp_tm, r, transform)
                # solution mantissas carry exp(peel); peel the CGO the same way
                e0m, h0m = eval_cgo_batch(probe, r * grid.nodes, peel)
                de = e_sol - e0m
                dcurl = 1j * k * (mu * h_sol - h0m)
                dens = (k * k * np.einsum("ni,ni->n", de, de.conj()).real
                        - (1.0 / mu) * np.einsum("ni,ni->n", dcurl, dcurl.conj()).real)
                total += wr * r * r * float(np.sum(grid.weights * dens))
        return total

    scat = shell_energy(1)
    if check:
        scat2 = shell_energy(2)
        if abs(scat2 - scat) > 1e-6 * max(abs(scat2), 1e-300):
            raise QuadratureUnderResolved(f"{solution.problem}: radial rule not converged")
        scat = scat2
    wball = _ball_weight(probe, geometry, peel)
    return -probe.tau * (ball_density * wball + scat) * math.exp(2.0 * peel)


def volume_indicator_pec(probe: CgoProbe, geometry: Geometry,
                         op_d: ImpedanceOperator,
                         solution: FieldSolution | None = None,
                         n_radial: int = 48, check: bool = False) -> float:
    """-tau * (volume side of the PEC energy identity), for comparison with I.

    Assembles integral over D of (|curl H0|^2 - k^2 |H0|^2) plus the
    annulus integral of k^2 |E~|^2 - |curl E~|^2 = k^2 (|E~|^2 - |H~|^2),
    E~ = E - E0 and H~ = H - H0 (the shell energy with mu = 1).
    """
    if solution is None:
        solution = solution_pec(op_d.k, geometry, op_d.L)
    k = op_d.k
    # in D the amplitudes are constant: |curl H0|^2 = k^2 |eta|^2 times the weight
    eta2 = float(np.vdot(probe.eta, probe.eta).real)
    theta2 = float(np.vdot(probe.theta, probe.theta).real)
    shells = [(geometry.r_obstacle, geometry.r_domain, 1.0, n_radial)]
    return _volume_side(probe, geometry, op_d, solution,
                        k * k * (eta2 - theta2), shells, check)


def volume_indicator_transmission(probe: CgoProbe, geometry: Geometry,
                                  medium: Medium, op_d: ImpedanceOperator,
                                  solution: FieldSolution | None = None,
                                  n_radial: int = 48, check: bool = False) -> float:
    """-tau * (volume side of the transmission energy identity).

    With eps = 1 the identity reads
      (1/mu - 1) int_D |curl E0|^2 + k^2 int_Omega |E~|^2
        - int_Omega (1/mu) |curl E~|^2  =  -I/tau,
    curl E~ = ik (mu H - H0) region-wise.
    """
    if solution is None:
        solution = solution_transmission(op_d.k, geometry, medium, op_d.L)
    k = op_d.k
    mu = medium.mu_inside
    # contrast term over D: |curl E0|^2 = k^2 |theta|^2 * weight
    theta2 = float(np.vdot(probe.theta, probe.theta).real)
    r_obs = geometry.r_obstacle
    shells = [(1e-9 * r_obs, r_obs, mu, max(24, n_radial // 2)),
              (r_obs, geometry.r_domain, 1.0, n_radial)]
    return _volume_side(probe, geometry, op_d, solution,
                        (1.0 / mu - 1.0) * k * k * theta2, shells, check)


__all__ = ["IndicatorTable", "IndicatorEngine", "auto_degree",
           "cgo_trace", "trace_energies", "trace_radial_logs",
           "indicator_value",
           "volume_indicator_pec", "volume_indicator_transmission",
           "DEFAULT_TAIL_TOL"]
