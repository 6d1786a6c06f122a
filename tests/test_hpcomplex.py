import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unityroot import HPComplex, HPReal
from conftest import exact, exact_complex, sample_complexes


def test_i_squared_is_minus_one():
    i = HPComplex.i()
    sq = i * i
    assert sq == HPComplex.from_int(-1)


def test_multiplicative_identity():
    one = HPComplex.one()
    for z in sample_complexes(10):
        assert z * one == z


def test_hand_expanded_product():
    # (1+2i)(3+4i) = 3 + 4i + 6i - 8 = -5 + 10i
    z = HPComplex.from_int(1, 2) * HPComplex.from_int(3, 4)
    assert z == HPComplex.from_int(-5, 10)


def test_conjugation():
    z = HPComplex.from_int(3, 4)
    assert z.conj() == HPComplex.from_int(3, -4)
    for w in sample_complexes(10):
        assert w.conj().conj() == w


def test_times_own_conjugate_is_real():
    for z in sample_complexes(20):
        prod = z * z.conj()
        re, im = exact_complex(prod)
        x, y = exact_complex(z)
        # imaginary part cancels exactly here: xy - xy in exact dyadics
        assert im == 0
        assert abs(re - (x * x + y * y)) <= Fraction(1, 2 ** 120)


def test_abs_pythagorean_triple():
    assert abs(HPComplex.from_int(3, 4)) == HPReal.from_int(5)
    assert abs(HPComplex.zero()).is_zero()


def test_abs_i_minus_one_is_sqrt_two():
    z = HPComplex.from_int(-1, 1)
    want = math.isqrt(2 << 254)  # independent scaled integer root
    got = abs(z)
    assert abs(exact(got) - Fraction(want, 1 << 127)) < Fraction(1, 2 ** 125)


def test_pow_basics():
    for z in sample_complexes(5):
        assert z.pow(0) == HPComplex.one()
    assert HPComplex.i().pow(2) == HPComplex.from_int(-1)
    # (1+i)^4 = ((1+i)^2)^2 = (2i)^2 = -4
    assert HPComplex.from_int(1, 1).pow(4) == HPComplex.from_int(-4)


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        HPComplex.i().pow(-1)


def test_abs_is_multiplicative():
    zs = sample_complexes(20)
    tol = Fraction(1, 2 ** 124)
    for z, w in zip(zs[:10], zs[10:]):
        left = exact(abs(z * w))
        right = exact(abs(z) * abs(w))
        scale = max(abs(left), Fraction(1, 10 ** 9))
        assert abs(left - right) <= tol * scale * 16


def test_pow_is_additive_in_exponent():
    zs = sample_complexes(6)
    tol = HPReal.pow2(-120)
    for z in zs:
        for j, k in [(2, 3), (1, 4), (3, 3)]:
            lhs = z.pow(j + k)
            rhs = z.pow(j) * z.pow(k)
            assert (lhs - rhs).abs2() <= tol * tol


def test_division_inverts_multiplication():
    zs = sample_complexes(12, seed=3)
    tol = HPReal.pow2(-120)
    for z, w in zip(zs[:6], zs[6:]):
        if w.abs2() < HPReal.pow2(-8):
            continue
        back = (z * w) / w
        assert (back - z).abs2() <= tol * tol


def test_mixed_precision_components_promoted():
    z = HPComplex(HPReal.from_int(1, 64), HPReal.from_int(2, 192))
    assert z.precision == 192
    assert z.re.precision == 192


def test_scalar_multiplication():
    z = HPComplex.from_int(2, 3)
    assert z * 2 == HPComplex.from_int(4, 6)
    assert z * HPReal.from_ratio(1, 2) == HPComplex(
        HPReal.from_int(1), HPReal.from_ratio(3, 2))


# ---------------------------------------------------------------------------
# the fused integer kernels against the composed HPReal formulas
# ---------------------------------------------------------------------------


def bits(z):
    return [(c.sign, c.mantissa, c.exponent, c.precision) for c in (z.re, z.im)]


def composed_mul(z, w):
    x, y, u, v = z.re, z.im, w.re, w.im
    return HPComplex(x * u - y * v, x * v + y * u)


def composed_pow(z, k):
    result, base = HPComplex.one(z.precision), z
    while k:
        if k & 1:
            result = composed_mul(result, base)
        k >>= 1
        if k:
            base = composed_mul(base, base)
    return result


@st.composite
def components(draw, precision):
    """Zero, or a full-width value with magnitude in [2**-3p, 2**p]: two such
    products are often more than prec + 8 bits apart, the sticky branch of
    the addition."""
    if draw(st.integers(0, 5)) == 0:
        return HPReal.zero(precision)
    mant = draw(st.integers(1 << (precision - 1), (1 << precision) - 1))
    exp = draw(st.integers(-4 * precision, 0))
    return HPReal(draw(st.sampled_from((-1, 1))), mant, exp, precision)


@st.composite
def complexes(draw):
    prec = draw(st.sampled_from((64, 128)))
    return HPComplex(draw(components(prec)), draw(components(prec)))


@st.composite
def near_diagonal(draw):
    """x + iy with y within a few ulps of x, so z * conj(swap(z)) has the
    imaginary part y^2 - x^2 cancelling almost completely."""
    prec = draw(st.sampled_from((64, 128)))
    x = draw(components(prec))
    if x.is_zero():
        return HPComplex(x, x)
    mant = x.mantissa + draw(st.integers(-8, 8))
    mant = min(max(mant, 1 << (prec - 1)), (1 << prec) - 1)
    return HPComplex(x, HPReal(x.sign * draw(st.sampled_from((-1, 1))), mant,
                               x.exponent, prec))


class TestFusedKernels:
    @settings(max_examples=400, deadline=None)
    @given(complexes(), complexes())
    def test_product_is_bit_identical(self, z, w):
        assert bits(z * w) == bits(composed_mul(z, w))

    @settings(max_examples=200, deadline=None)
    @given(near_diagonal())
    def test_cancelling_product_is_bit_identical(self, z):
        w = HPComplex(z.im, z.re).conj()
        assert bits(z * w) == bits(composed_mul(z, w))

    @settings(max_examples=300, deadline=None)
    @given(complexes())
    def test_abs2_is_bit_identical(self, z):
        want = z.re * z.re + z.im * z.im
        got = z.abs2()
        assert ((got.sign, got.mantissa, got.exponent, got.precision)
                == (want.sign, want.mantissa, want.exponent, want.precision))

    @settings(max_examples=100, deadline=None)
    @given(complexes(), st.integers(0, 70))
    def test_pow_is_bit_identical(self, z, k):
        assert bits(z.pow(k)) == bits(composed_pow(z, k))

    @settings(max_examples=200, deadline=None)
    @given(complexes(), complexes())
    def test_division_is_bit_identical(self, z, w):
        assume(not w.is_zero())
        x, y, u, v = z.re, z.im, w.re, w.im
        d = u * u + v * v
        want = HPComplex((x * u + y * v) / d, (y * u - x * v) / d)
        assert bits(z / w) == bits(want)
