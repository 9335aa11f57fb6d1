"""Basis and sign conventions used by every module.

This is the single documented table; all other modules import from here
rather than restating signs.

Spherical harmonics
    Y_lm: complex, orthonormal over the unit sphere (int |Y|^2 dOmega = 1),
    Condon-Shortley phase (matches scipy.special.sph_harm_y).

Vector basis on a sphere of radius R, evaluated at the unit vector x^:
    P_lm = Y_lm r^                                  (radial)
    U_lm = grad_S Y_lm / sqrt(l(l+1))               (tangential, grad-type)
    V_lm = r^ x U_lm                                (tangential, curl-type)
  All three are orthonormal w.r.t. the *unit-sphere* measure; surface
  integrals over radius R carry an explicit R^2 factor.

nu^ = r^ is the outward normal.  For a tangential field f = u U + v V:
    nu ^ f = u V - v U          (coefficients (u, v) -> (-v, u))
    f ^ nu = v U - u V          (inverse rotation)

Polarizations (per degree l, independent of m):
    TE ("M-mode"): E tangential, pure V pattern; nu^E lands on U.
    TM ("N-mode"): E has U + radial parts; nu^E lands on V.
  An impedance operator therefore acts as
    (Lambda f)_V = lam_te(l) * f_U
    (Lambda f)_U = lam_tm(l) * f_V

Radial functions (Riccati-Bessel):
    psi_l(z) = z j_l(z),  chi_l(z) = z y_l(z),  xi_l(z) = psi + i chi
    Wronskians: psi chi' - psi' chi = 1,  psi xi' - psi' xi = i
  xi_l is outgoing under the implicit exp(-i omega t) time convention.

Maxwell pair convention: curl E = ik mu H, curl H = -ik eps E.
  For mu = eps = 1 and E = a M + b N (M = curl(x z_l(kr) Y),
  N = curl M / k), the partner field is H = -i (a N + b M).

Surface divergence on the radius-R sphere:
    Div U_lm = -sqrt(l(l+1))/R * Y_lm,   Div V_lm = 0.

Fundamental solution (note the NEGATIVE sign):
    Phi_k(x, y) = -exp(ik|x-y|) / (4 pi |x-y|)
  The jump of nu ^ curl S_k across the surface is then
    interior limit = (+1/2 I + M_k) f,  exterior limit = (-1/2 I + M_k) f.
"""

# Polarization slots in tangential coefficient arrays.
POL_U = 0   # grad-type coefficient (multiplies U_lm)
POL_V = 1   # curl-type coefficient (multiplies V_lm)

# Impedance entry slots (per degree l).
TE = 0      # maps f_U -> g_V
TM = 1      # maps f_V -> g_U

