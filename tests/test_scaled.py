import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from enclosure.mathkit import ScaledComplex, scaled


def test_normalization_invariant():
    s = scaled(123.456 - 789.0j, 2.5)
    assert 0.5 <= abs(s.mantissa) < 2.0
    z = scaled(0.0, 17.0)
    assert z.mantissa == 0 and z.exponent == 0.0


def test_subnormal_mantissa_normalizes():
    """2**-nbits of a subnormal magnitude is past the double range; the
    mantissa is lifted into the normal range first.  A subnormal carries
    about 4 digits, and abs() of one rounds there."""
    for m in (1e-320 - 3e-321j, 5e-324):
        s = scaled(m, 4.0)
        assert 0.5 <= abs(s.mantissa) < 1.0
        assert abs(s.ln_abs() - (math.log(abs(m)) + 4.0)) < 1e-4


def test_zero_identities():
    z = ScaledComplex.zero()
    a = scaled(1.5 + 0.5j, 3.0)
    assert (z + a) == a
    assert (a + z) == a
    assert (z * a).is_zero
    assert z.ln_abs() == -math.inf
    assert z.to_complex() == 0j


def test_scale_exp_is_exact():
    a = scaled(1.0 + 1.0j, 10.0)
    b = a.scale_exp(25.0)
    assert b.mantissa == a.mantissa
    assert b.exponent == a.exponent + 25.0


def test_huge_exponent_roundtrip():
    # exp(2 * tau * R) at tau = 500 is far beyond double range
    a = scaled(cmath.exp(0.3j), 1000.0)
    b = scaled(cmath.exp(-0.3j), -1000.0)
    prod = a * b
    assert abs(prod.ln_abs()) < 1e-9
    assert abs(prod.to_complex() - 1.0) < 1e-12


def test_addition_aligns_exponents():
    a = scaled(1.0, 50.0)
    b = scaled(1.0, 0.0)
    s = a + b
    # b is invisible at this magnitude gap but must not corrupt anything
    assert abs(s.ln_abs() - 50.0) < 1e-12
    c = scaled(1.0, 50.0 + math.log(2.0))
    d = (a + a) - c
    assert d.abs() / c.abs() < 1e-14


complex_st = st.builds(
    complex,
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(complex_st, complex_st)
def test_multiplication_matches_complex(a, b):
    prod = scaled(a, 0.0) * scaled(b, 0.0)
    ref = scaled(a * b, 0.0)
    ratio = (prod.mantissa / ref.mantissa) * math.exp(prod.exponent - ref.exponent)
    assert abs(ratio - 1.0) < 1e-13


@settings(max_examples=300, deadline=None)
@given(complex_st, complex_st)
def test_addition_matches_complex(a, b):
    s = (scaled(a, 0.0) + scaled(b, 0.0)).to_complex()
    assert abs(s - (a + b)) <= 1e-13 * (abs(a) + abs(b))


def test_conj_and_neg():
    a = scaled(1.0 - 2.0j, 4.0)
    assert a.conj().mantissa == a.mantissa.conjugate()
    assert (-a).mantissa == -a.mantissa
    assert (a - a).is_zero or (a - a).abs() == 0.0
