"""Extended-exponent complex arithmetic.

Indicator sweeps mix factors like exp(2 tau R) against operator entries of
size (R_D/R_Omega)^(2l+1); the products leave the double range well before
either factor is individually extreme.  A ScaledComplex keeps a complex
mantissa and a separate natural-log exponent so those products stay exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScaledComplex:
    """Value mantissa * exp(exponent), exponent on the natural-log scale.

    Normalized so that 0.5 <= |mantissa| < 2, or mantissa == 0 with
    exponent == 0.  Construct through :func:`scaled` / :meth:`from_complex`
    rather than the raw constructor so the invariant holds.
    """

    mantissa: complex
    exponent: float

    @staticmethod
    def from_complex(value: complex) -> "ScaledComplex":
        return scaled(value, 0.0)

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def __mul__(self, other) -> "ScaledComplex":
        if isinstance(other, ScaledComplex):
            return scaled(self.mantissa * other.mantissa,
                          self.exponent + other.exponent)
        return scaled(self.mantissa * other, self.exponent)

    __rmul__ = __mul__

    def __add__(self, other) -> "ScaledComplex":
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        a, b = self, other
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if b.exponent > a.exponent:
            a, b = b, a
        shift = b.exponent - a.exponent
        # exp(shift) underflows harmlessly to 0 for shift << -745
        return scaled(a.mantissa + b.mantissa * math.exp(shift), a.exponent)

    def __neg__(self) -> "ScaledComplex":
        return ScaledComplex(-self.mantissa, self.exponent)

    def __sub__(self, other) -> "ScaledComplex":
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        return self + (-other)

    def conj(self) -> "ScaledComplex":
        return ScaledComplex(self.mantissa.conjugate(), self.exponent)

    def scale_exp(self, delta: float) -> "ScaledComplex":
        """Multiply by exp(delta) exactly (exponent shift only)."""
        if self.is_zero:
            return self
        return ScaledComplex(self.mantissa, self.exponent + delta)

    def ln_abs(self) -> float:
        """Natural log of |value|; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return self.exponent + math.log(abs(self.mantissa))

    def abs(self) -> float:
        """|value| as a plain float (inf on overflow)."""
        if self.is_zero:
            return 0.0
        try:
            return abs(self.mantissa) * math.exp(self.exponent)
        except OverflowError:
            return math.inf

    def to_complex(self) -> complex:
        """Collapse to a plain complex (may overflow to inf components)."""
        if self.is_zero:
            return 0j
        if self.exponent > 700.0:
            return cmath.rect(math.inf, cmath.phase(self.mantissa))
        return self.mantissa * math.exp(self.exponent)

    def __repr__(self):
        return f"ScaledComplex({self.mantissa!r}, exp={self.exponent!r})"


def scaled(mantissa: complex, exponent: float) -> ScaledComplex:
    """Normalize (mantissa, exponent) into a ScaledComplex."""
    return ScaledComplex(*normalize(mantissa, exponent))


def normalize(mantissa: complex, exponent: float) -> tuple[complex, float]:
    """The (mantissa, exponent) fields that `scaled` gives, as plain numbers."""
    mag = abs(mantissa)
    if mag == 0.0:
        return 0j, 0.0
    if not math.isfinite(mag):
        return complex(mantissa), float(exponent)
    _, nbits = math.frexp(mag)   # mag = frac * 2**nbits, frac in [0.5, 1)
    if nbits < -1021:            # subnormal: 2**-nbits is past the double range
        return normalize(mantissa * math.ldexp(1.0, 1021), exponent - 1021 * _LN2)
    if nbits != 0:
        mantissa = mantissa * math.ldexp(1.0, -nbits)
        exponent = exponent + nbits * _LN2
    return complex(mantissa), float(exponent)
