"""Indicator functional I_rho(tau, t) and its volume cross-checks.

The indicator pairs the CGO trace with the impedance-difference response:
    I = ik tau * integral over the outer sphere of
        (nu^E0) . conj(((Lambda_D - Lambda_empty)(nu^E0)) ^ nu) dS.
Computed entirely in coefficient space (Parseval), with the CGO's
exponential magnitude peeled into a shared log-scale so sweeps stay exact
far beyond the double range.  Energy identities relate -I/tau to volume
integrals of the probe and scattered fields; both assemblies live here as
independent computation paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgo import CgoMode, CgoProbe, build_probe, eval_cgo_batch
from .conventions import POL_U, POL_V, TE, TM
from .errors import QuadratureUnderResolved, TruncationInsufficient
from .forward import (FieldSolution, Geometry, ImpedanceOperator, Medium,
                      solution_empty, solution_pec, solution_transmission)
from .mathkit import ScaledComplex, VshCoeffs, scaled
from .mathkit.vsh import VshTransform, get_transform

DEFAULT_TAIL_TOL = 1e-8
_LN2 = math.log(2.0)


def auto_degree(tau_max: float, k: float, r_domain: float) -> int:
    """Truncation rule: enough degrees to resolve the CGO trace at tau_max."""
    return int(math.ceil(1.5 * math.sqrt(tau_max**2 + k**2) * r_domain)) + 10


@dataclass
class IndicatorSample:
    rho: np.ndarray
    tau: float
    t: float
    value: ScaledComplex
    trace_tail: float
    trusted: bool

    @property
    def ln_abs(self) -> float:
        return self.value.ln_abs()


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


def _operator_difference(op_d: ImpedanceOperator, op_empty: ImpedanceOperator):
    if (op_d.L != op_empty.L or op_d.k != op_empty.k
            or op_d.r_domain != op_empty.r_domain):
        raise ValueError("operators must share (k, r_domain, L)")
    if op_d.label != "empty":
        # assembled in closed form, free of subtractive cancellation
        return op_d.diff_empty
    return op_d.lam - op_empty.lam


def indicator_value(op_d: ImpedanceOperator, op_empty: ImpedanceOperator,
                    probe: CgoProbe, trace: VshCoeffs | None = None,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> ScaledComplex:
    """I_rho(tau, t) as a scaled complex number.

    The Parseval form per degree l is
        ik tau R^2 [ conj(dlam_TE) sum_m |h_U|^2 - conj(dlam_TM) sum_m |h_V|^2 ]
    where h is the nu^E0 trace and dlam the operator difference.
    """
    dlam = _operator_difference(op_d, op_empty)
    if trace is None:
        trace, _ = cgo_trace(probe, op_d.r_domain, op_d.L, tail_tol=tail_tol)
    energies = trace.degree_energies()      # (2, L+1) mantissa-scale
    pref = 1j * probe.k * probe.tau * op_d.r_domain**2
    terms = pref * (np.conj(dlam[TE]) * energies[POL_U]
                    - np.conj(dlam[TM]) * energies[POL_V])
    # every term carries exp(2 ln_scale): sum the mantissas once, rescaled
    # by the exact power of two of the largest term
    _, nbits = math.frexp(float(np.max(np.abs(terms))))
    total = complex(np.sum(terms * math.ldexp(1.0, -nbits)))
    return scaled(total, 2.0 * trace.ln_scale + nbits * _LN2)


# ---------------------------------------------------------------------------
# sweep engine


@dataclass
class SweepConfig:
    """Everything needed to evaluate the indicator for one configuration."""

    problem: str                         # 'pec' | 'transmission' | 'empty'
    geometry: Geometry
    k: float
    medium: Medium | None = None
    L: int | None = None                 # None -> auto from max tau at use
    tail_tol: float = DEFAULT_TAIL_TOL
    eigen_guard: float = 1e-10

    def mode(self) -> CgoMode:
        return (CgoMode.PENETRABLE if self.problem == "transmission"
                else CgoMode.IMPENETRABLE)


class IndicatorEngine:
    """Shared operator/transform assembly for (tau, t, rho) sweeps."""

    def __init__(self, config: SweepConfig, tau_max: float):
        self.config = config
        self.L = config.L or auto_degree(tau_max, config.k, config.geometry.r_domain)
        if config.problem == "empty":
            # no obstacle: the operator difference vanishes identically
            self.solution = solution_empty(config.k, config.geometry.r_domain,
                                           self.L, guard=config.eigen_guard)
        elif config.problem == "pec":
            self.solution = solution_pec(config.k, config.geometry, self.L,
                                         guard=config.eigen_guard)
        elif config.problem == "transmission":
            if config.medium is None:
                raise ValueError("transmission problem needs a medium")
            self.solution = solution_transmission(config.k, config.geometry,
                                                  config.medium, self.L,
                                                  guard=config.eigen_guard)
        else:
            raise ValueError(f"unknown problem {config.problem!r}")
        self.op_d = self.solution.operator
        self.op_empty = solution_empty(config.k, config.geometry.r_domain,
                                       self.L, guard=config.eigen_guard).operator
        self.transform = get_transform(self.L)
        self.r_domain = config.geometry.r_domain

    def probe(self, rho, tau: float, t: float) -> CgoProbe:
        return build_probe(self.config.k, tau, t, rho, self.config.mode())

    def sample(self, rho, tau: float, t: float) -> IndicatorSample:
        return self.t_sweep(rho, tau, [t])[0]

    def tau_sweep(self, rho, t: float, taus) -> list[IndicatorSample]:
        return [self.sample(rho, float(tau), t) for tau in taus]

    def t_sweep(self, rho, tau: float, ts) -> list[IndicatorSample]:
        """Samples over t at fixed tau; one probe and one trace mantissa shared."""
        ts = [float(t) for t in ts]
        if not ts:
            return []
        probe = self.probe(rho, float(tau), ts[0])
        base, tail = cgo_trace(probe, self.r_domain, self.L, self.transform)
        out = []
        for t in ts:
            trace = VshCoeffs(base.L, base.data, ln_scale=probe.tau * (self.r_domain - t))
            value = indicator_value(self.op_d, self.op_empty, probe, trace=trace)
            out.append(IndicatorSample(rho=np.asarray(rho, dtype=float), tau=probe.tau,
                                       t=t, value=value, trace_tail=tail,
                                       trusted=tail <= self.config.tail_tol))
        return out


def tau_sweep(rho, t, taus, config: SweepConfig) -> list[IndicatorSample]:
    engine = IndicatorEngine(config, tau_max=float(max(taus)))
    return engine.tau_sweep(rho, t, taus)


def t_sweep(rho, tau, ts, config: SweepConfig) -> list[IndicatorSample]:
    engine = IndicatorEngine(config, tau_max=float(tau))
    return engine.t_sweep(rho, tau, ts)


# ---------------------------------------------------------------------------
# volume assemblies (energy-identity cross checks)


def _ball_weight_quadrature(probe: CgoProbe, radius: float, q: float,
                            n_radial: int, ang_degree: int, peel: float) -> float:
    """integral over the origin-centered ball of exp(q tau (x.rho - t) - q peel)."""
    from .mathkit import sphere_quadrature
    grid = sphere_quadrature(ang_degree)
    rx, rw = np.polynomial.legendre.leggauss(n_radial)
    rr = 0.5 * radius * (rx + 1.0)
    rw = 0.5 * radius * rw
    total = 0.0
    for r, wr in zip(rr, rw):
        expo = q * (probe.tau * (r * (grid.nodes @ probe.frame.rho) - probe.t) - peel)
        total += wr * r * r * float(np.sum(grid.weights * np.exp(expo)))
    return total


def _annulus_scatter_integral(solution: FieldSolution, geom: Geometry,
                              probe: CgoProbe, trace: VshCoeffs,
                              n_radial: int, transform: VshTransform):
    """integral over the annulus of k^2 (|E - E0|^2 - |H - H0|^2), peeled.

    Returns the mantissa-scale integral; multiply by exp(2 * trace.ln_scale).
    """
    k = solution.k
    amp_te, amp_tm = solution.amplitudes(trace)
    grid = transform.grid
    rx, rw = np.polynomial.legendre.leggauss(n_radial)
    lo, hi = geom.r_obstacle, geom.r_domain
    rr = 0.5 * (hi - lo) * rx + 0.5 * (hi + lo)
    rw = 0.5 * (hi - lo) * rw
    peel = trace.ln_scale

    total = 0.0
    for r, wr in zip(rr, rw):
        e_sol, h_sol = solution.fields_on_shell(amp_te, amp_tm, r, transform)
        pts = r * grid.nodes
        # solution mantissas carry exp(trace.ln_scale); peel the CGO the same way
        e0m, h0m = eval_cgo_batch(probe, pts, peel)
        de = e_sol - e0m
        dh = h_sol - h0m
        dens = (np.einsum("ni,ni->n", de, de.conj()).real
                - np.einsum("ni,ni->n", dh, dh.conj()).real)
        total += wr * r * r * float(np.sum(grid.weights * dens))
    return k * k * total


def volume_indicator_pec(probe: CgoProbe, geometry: Geometry,
                         op_d: ImpedanceOperator,
                         solution: FieldSolution | None = None,
                         n_radial: int = 48, check: bool = False) -> float:
    """-tau * (volume side of the PEC energy identity), for comparison with I.

    Assembles integral over D of (|curl H0|^2 - k^2 |H0|^2) plus the
    annulus integral of (|curl H~|^2 - k^2 |H~|^2), H~ = H - H0, by radial
    Gauss-Legendre times the spherical grid, in peeled arithmetic.
    """
    if solution is None:
        solution = solution_pec(op_d.k, geometry, op_d.L)
    k = op_d.k
    transform = get_transform(op_d.L)
    trace, _ = cgo_trace(probe, geometry.r_domain, op_d.L, transform)
    peel = trace.ln_scale    # tau (R - t)

    # obstacle-ball integral: amplitudes are constant, weight is exponential
    eta2 = float(np.vdot(probe.eta, probe.eta).real)
    theta2 = float(np.vdot(probe.theta, probe.theta).real)
    ang = max(8, int(math.ceil(1.1 * probe.tau * geometry.r_obstacle)) + 8)
    nr_ball = max(24, int(math.ceil(0.8 * probe.tau * geometry.r_obstacle)) + 10)
    wball = _ball_weight_quadrature(probe, geometry.r_obstacle, 2.0,
                                    nr_ball, ang, peel)
    part_d = k * k * (eta2 - theta2) * wball

    part_ann = _annulus_scatter_integral(solution, geometry, probe, trace,
                                         n_radial, transform)
    if check:
        part2 = _annulus_scatter_integral(solution, geometry, probe, trace,
                                          2 * n_radial, transform)
        if abs(part2 - part_ann) > 1e-6 * max(abs(part2), 1e-300):
            raise QuadratureUnderResolved("annulus radial rule not converged")
        part_ann = part2

    return -probe.tau * (part_d + part_ann) * math.exp(2.0 * peel)


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
    transform = get_transform(op_d.L)
    trace, _ = cgo_trace(probe, geometry.r_domain, op_d.L, transform)
    peel = trace.ln_scale
    amp_te, amp_tm = solution.amplitudes(trace)
    grid = transform.grid

    def region_integral(lo, hi, mu_reg, n_r):
        rx, rw = np.polynomial.legendre.leggauss(n_r)
        rr = 0.5 * (hi - lo) * rx + 0.5 * (hi + lo)
        rws = 0.5 * (hi - lo) * rw
        acc = 0.0
        for r, wr in zip(rr, rws):
            e_sol, h_sol = solution.fields_on_shell(amp_te, amp_tm, r, transform)
            pts = r * grid.nodes
            e0m, h0m = eval_cgo_batch(probe, pts, peel)
            de = e_sol - e0m
            dcurl = 1j * k * (mu_reg * h_sol - h0m)     # curl(E - E0)
            dens = (k * k * np.einsum("ni,ni->n", de, de.conj()).real
                    - (1.0 / mu_reg) * np.einsum("ni,ni->n", dcurl, dcurl.conj()).real)
            acc += wr * r * r * float(np.sum(grid.weights * dens))
        return acc

    # contrast term over D: |curl E0|^2 = k^2 |theta|^2 * weight
    theta2 = float(np.vdot(probe.theta, probe.theta).real)
    ang = max(8, int(math.ceil(1.1 * probe.tau * geometry.r_obstacle)) + 8)
    nr_ball = max(24, int(math.ceil(0.8 * probe.tau * geometry.r_obstacle)) + 10)
    wball = _ball_weight_quadrature(probe, geometry.r_obstacle, 2.0,
                                    nr_ball, ang, peel)
    contrast = (1.0 / mu - 1.0) * k * k * theta2 * wball

    nr_inner = max(24, n_radial // 2)
    scat = (region_integral(1e-9 * geometry.r_obstacle, geometry.r_obstacle,
                            mu, nr_inner)
            + region_integral(geometry.r_obstacle, geometry.r_domain,
                              1.0, n_radial))
    if check:
        scat2 = (region_integral(1e-9 * geometry.r_obstacle, geometry.r_obstacle,
                                 mu, 2 * nr_inner)
                 + region_integral(geometry.r_obstacle, geometry.r_domain,
                                   1.0, 2 * n_radial))
        if abs(scat2 - scat) > 1e-6 * max(abs(scat2), 1e-300):
            raise QuadratureUnderResolved("transmission radial rule not converged")
        scat = scat2

    return -probe.tau * (contrast + scat) * math.exp(2.0 * peel)


__all__ = ["IndicatorSample", "SweepConfig", "IndicatorEngine", "auto_degree",
           "cgo_trace", "indicator_value", "tau_sweep", "t_sweep",
           "volume_indicator_pec", "volume_indicator_transmission",
           "DEFAULT_TAIL_TOL"]
