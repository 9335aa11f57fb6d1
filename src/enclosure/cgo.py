"""Complex geometrical optics probes for the Maxwell pair.

The probe family is E0 = eta exp(tau (x.rho - t) + i sqrt(tau^2+k^2) x.rho_perp),
H0 = theta * (same exponential), built from the complex wave vector
zeta = -i tau rho + sqrt(tau^2 + k^2) rho_perp (zeta . zeta = k^2).  Two
parameter regimes are used: one with |eta| growing like tau (impenetrable
probing) and the converse with |theta| ~ tau (penetrable probing).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .mathkit import Frame, build_frame, cross3, scaled


class CgoMode(enum.Enum):
    IMPENETRABLE = "impenetrable"   # a = sqrt(2) rho_perp, b = rho x rho_perp
    PENETRABLE = "penetrable"       # a = rho x rho_perp,   b = conj(zeta)/|zeta|


@dataclass(frozen=True, eq=False)
class CgoProbe:
    """A fully derived probe: direction frame, amplitudes and symbol vectors.

    Invariants (all enforced by the constructor up to roundoff):
      zeta.zeta = k^2,  zeta.eta = zeta.theta = 0,
      zeta x eta = k theta,  zeta x theta = -k eta.
    """

    k: float
    tau: float
    t: float
    frame: Frame
    mode: CgoMode
    zeta: np.ndarray      # complex 3-vector
    a: np.ndarray         # real 3-vector
    b: np.ndarray         # complex 3-vector
    eta: np.ndarray       # complex amplitude of E0
    theta: np.ndarray     # complex amplitude of H0

    @property
    def phase_wavenumber(self) -> float:
        """sqrt(tau^2 + k^2), the oscillation rate along rho_perp."""
        return math.sqrt(self.tau**2 + self.k**2)

    def with_t(self, t: float) -> "CgoProbe":
        return CgoProbe(self.k, self.tau, t, self.frame, self.mode,
                        self.zeta, self.a, self.b, self.eta, self.theta)


def make_zeta(k: float, tau: float, frame: Frame) -> np.ndarray:
    """zeta = -i tau rho + sqrt(tau^2 + k^2) rho_perp."""
    if k <= 0.0 or tau <= 0.0:
        raise ValueError("k and tau must be positive")
    return -1j * tau * frame.rho + math.sqrt(tau**2 + k**2) * frame.rho_perp


def build_probe(k: float, tau: float, t: float, rho, mode: CgoMode) -> CgoProbe:
    """Construct a probe for direction rho (frame completed deterministically)."""
    frame = rho if isinstance(rho, Frame) else build_frame(rho)
    zeta = make_zeta(k, tau, frame)
    zabs = math.sqrt(2.0 * tau**2 + k**2)   # |zeta| (Euclidean on C^3)
    if mode is CgoMode.IMPENETRABLE:
        a = math.sqrt(2.0) * frame.rho_perp
        b = frame.rho_cross.astype(complex)
    elif mode is CgoMode.PENETRABLE:
        a = frame.rho_cross.copy()
        b = np.conj(zeta) / zabs
    else:
        raise ValueError(f"unknown mode {mode!r}")
    eta = (-(zeta @ a) * zeta - k * cross3(zeta, b) + k**2 * a) / zabs
    theta = (k * cross3(zeta, a) - (zeta @ b) * zeta + k**2 * b) / zabs
    return CgoProbe(k=float(k), tau=float(tau), t=float(t), frame=frame,
                    mode=mode, zeta=zeta, a=np.asarray(a, dtype=float),
                    b=np.asarray(b, dtype=complex), eta=eta, theta=theta)


# ---------------------------------------------------------------------------
# evaluation


def eval_cgo_batch(probe: CgoProbe, xs: np.ndarray, peel: float):
    """Mantissa fields at many points with a common peeled exponent.

    Returns (E0m, H0m) of shape (N, 3); the true fields are these times
    exp(peel).  Pick peel >= max tau(x.rho - t) to keep mantissas bounded.
    curl E0 = ik H0 and curl H0 = -ik E0 hold because curl acts as
    (i zeta) wedge on this family.
    """
    xs = np.asarray(xs, dtype=float)
    expo = probe.tau * (xs @ probe.frame.rho - probe.t)
    phase = probe.phase_wavenumber * (xs @ probe.frame.rho_perp)
    factor = np.exp(expo - peel + 1j * phase)
    return probe.eta[None, :] * factor[:, None], probe.theta[None, :] * factor[:, None]


def curl_amplitudes(probe: CgoProbe) -> tuple[np.ndarray, np.ndarray]:
    """Vector amplitudes of (curl E0, curl H0): (i zeta) x eta|theta."""
    return 1j * np.cross(probe.zeta, probe.eta), 1j * np.cross(probe.zeta, probe.theta)


def cgo_identity_defect(probe: CgoProbe) -> float:
    """Worst relative defect over the probe's algebraic invariants.

    Each identity is normalized by its own cancellation scale (|zeta|^2 for
    zeta.zeta - k^2, |zeta| |eta| for transversality and curl products):
    that is the precision doubles can deliver once tau >> k.
    """
    k = probe.k
    zabs = float(np.linalg.norm(probe.zeta))
    eabs = float(np.linalg.norm(probe.eta))
    tabs = float(np.linalg.norm(probe.theta))
    defect = abs(probe.zeta @ probe.zeta - k * k) / (zabs * zabs)
    defect = max(defect, abs(probe.zeta @ probe.eta) / (zabs * eabs))
    defect = max(defect, abs(probe.zeta @ probe.theta) / (zabs * tabs))
    defect = max(defect,
                 float(np.max(np.abs(np.cross(probe.zeta, probe.eta) - k * probe.theta)))
                 / (zabs * eabs + k * tabs))
    defect = max(defect,
                 float(np.max(np.abs(np.cross(probe.zeta, probe.theta) + k * probe.eta)))
                 / (zabs * tabs + k * eabs))
    return defect


# ---------------------------------------------------------------------------
# volume norms over a ball (Lq integrals feeding the asymptotic checks)


def ball_weight(s: float, radius: float) -> float:
    """Integral of exp(s x.rho) over the ball |x| < radius, times exp(-s radius).

    The classical form (4 pi / s^3) (s r cosh(s r) - sinh(s r)), peeled:
    (2 pi / s^3) [s r (1 + e^{-2 s r}) - (1 - e^{-2 s r})].  Below s r = 0.5,
    where that difference cancels, it sums the series of
    (x cosh x - sinh x) / x^3 = sum_{n>=1} 2n x^{2n-2} / (2n+1)!.
    """
    x = s * radius
    if x < 0.5:
        x2 = x * x
        term, series = 1.0 / 3.0, 0.0
        for n in range(1, 9):
            series += term
            term *= x2 / (2 * n * (2 * n + 3))
        return 4.0 * math.pi * radius**3 * series * math.exp(-x)
    e = math.exp(-2.0 * x)
    return 2.0 * math.pi / s**3 * (x * (1.0 + e) - (1.0 - e))


def cgo_volume_norms(probe: CgoProbe, ball, q: float = 2.0):
    """L^q norms of (E0, H0, curl H0) over a ball, as scaled reals.

    ball = (center, radius).  |E0|^q = |eta|^q exp(q tau (x.rho - t)), so
    each norm is its amplitude times the exact ball weight at s = q tau,
    peeled at the ball's maximal x.rho.  curl H0 is the analytic symbol
    (i zeta) x theta times the same exponential.
    """
    if q < 1.0:
        raise ValueError("q must be >= 1")
    center, radius = ball
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    peel = probe.tau * (np.asarray(center, dtype=float) @ probe.frame.rho
                        + radius - probe.t)
    ln_scale = math.log(ball_weight(q * probe.tau, radius)) / q + peel

    _, curl_h = curl_amplitudes(probe)
    # ||f||_q = |amp| * (peeled weight)^{1/q} * exp(peel)
    return tuple(scaled(1.0, math.log(float(np.linalg.norm(amp))) + ln_scale)
                 for amp in (probe.eta, probe.theta, curl_h))


__all__ = ["CgoMode", "CgoProbe", "make_zeta", "build_probe", "eval_cgo_batch",
           "curl_amplitudes", "cgo_identity_defect", "ball_weight", "cgo_volume_norms"]
