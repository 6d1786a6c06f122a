import math
from fractions import Fraction

import mpmath
import pytest

from unityroot import (HPComplex, HPReal, InvalidN, Zeta, construct_zeta,
                       multiplicative_order, radius_identity_check,
                       solve_unity, zeta_power)
from unityroot.oracle import trig_root
from conftest import exact, fresh


def test_trivial_indices_are_exact():
    for p in (32, 128, 256):
        one, zero = HPReal.one(p), HPReal.zero(p)
        z1 = construct_zeta(1, p)
        assert (z1.a, z1.b) == (one, zero)
        assert z1.r.is_zero()
        z2 = construct_zeta(2, p)
        assert (z2.a, z2.b) == (-one, zero)
        assert z2.r == HPReal.from_int(2, p)
        z4 = construct_zeta(4, p)
        assert (z4.a, z4.b) == (zero, one)
        assert z4.r == HPReal.from_int(2, p).sqrt()


def test_n6_is_half_plus_sqrt3_over_2():
    z = construct_zeta(6)
    tol = Fraction(1, 2 ** 120)
    assert abs(exact(z.a) - Fraction(1, 2)) <= tol
    s3h = exact(HPReal.from_int(3).sqrt()) / 2
    assert abs(exact(z.b) - s3h) <= tol
    # the two upper candidates sit at Re 0.5 and -0.5; r^2 = 2-2a picks 1
    assert abs(exact(z.r) - 1) <= tol


def test_n8_radius_squared_is_two_minus_sqrt_two():
    z = construct_zeta(8)
    half_sqrt = exact(HPReal.from_ratio(1, 2).sqrt())
    tol = Fraction(1, 2 ** 120)
    assert abs(exact(z.a) - half_sqrt) <= tol
    assert abs(exact(z.b) - half_sqrt) <= tol
    want_r2 = 2 - exact(HPReal.from_int(2).sqrt())
    assert abs(exact(z.r) ** 2 - want_r2) <= tol


def test_odd_n_equals_square_of_doubled():
    z3 = construct_zeta(3)
    z6 = construct_zeta(6)
    sq = z6.as_complex() * z6.as_complex()
    tol2 = HPReal.pow2(-240)
    assert (z3.as_complex() - sq).abs2() <= tol2
    assert z3.b > HPReal.zero()


def test_odd_n_matches_direct_minimizer():
    # the doubled-and-squared value must coincide with the minimizer taken
    # straight from the odd-index root set
    one = HPComplex.one()
    for n in (3, 5, 9, 15):
        z = construct_zeta(n)
        rs = solve_unity(n)
        best = None
        for w in rs.roots:
            if w.im > rs.residual_bound:
                d = abs(w - one)
                if best is None or d < best[0]:
                    best = (d, w)
        assert best is not None
        assert (z.as_complex() - best[1]).abs2() <= HPReal.pow2(-200)


def test_minimality_against_all_other_upper_roots():
    for n in (6, 10, 16):
        z = construct_zeta(n)
        rs = solve_unity(n)
        one = HPComplex.one()
        gap = HPReal.pow2(-(128 // 4))
        others = 0
        for w in rs.roots:
            if w.im > rs.residual_bound and (w - z.as_complex()).abs2() > HPReal.pow2(-100):
                others += 1
                assert abs(w - one) > z.r + gap
        # strictly-upper roots are zeta^1..zeta^(n/2-1); all but zeta itself
        assert others == n // 2 - 2


def test_radius_identity_holds_for_constructions():
    for n in (1, 2, 4, 6, 7, 12, 20):
        assert radius_identity_check(construct_zeta(n))


def test_radius_identity_rejects_perturbation():
    z = construct_zeta(6)
    bumped = Zeta(n=6, a=z.a + HPReal.pow2(-20), b=z.b, r=z.r, precision=128)
    assert not radius_identity_check(bumped)


def test_unit_modulus_invariant():
    for n in (6, 9, 14):
        z = construct_zeta(n)
        mod = exact(z.a) ** 2 + exact(z.b) ** 2
        assert abs(mod - 1) <= Fraction(1, 2 ** 120)


def hpreal_ranking(rootset):
    """(w, r) by the rounded HPReal |w - 1|^2 over every root with
    Im w > residual_bound, the first of equal values winning."""
    one = HPComplex.one(rootset.precision)
    upper = [((w - one).abs2(), w) for w in rootset.roots
             if w.im > rootset.residual_bound]
    d2, w = sorted(upper, key=lambda t: t[0])[0]
    return w, d2.sqrt()


def test_integer_ranking_matches_hpreal_ranking():
    # the table entry construct_zeta reads is the minimizer a search over
    # the upper roots finds, bit for bit
    def bits(v):
        return v.sign, v.mantissa, v.exponent

    moved = []
    for p in (32, 128):
        for n in range(6, 301, 2):
            z = construct_zeta(n, p)
            w, r = hpreal_ranking(solve_unity(n, p))
            if [bits(v) for v in (z.a, z.b, z.r)] != [bits(v) for v in (w.re, w.im, r)]:
                moved.append((n, p))
    assert not moved


def test_invalid_n_rejected():
    with pytest.raises(InvalidN):
        construct_zeta(0)


def test_zeta_power_rejects_n_as_construct_zeta_does():
    for n in (0, 16385):
        with pytest.raises(InvalidN) as want:
            construct_zeta(n)
        with pytest.raises(InvalidN) as got:
            zeta_power(n, 2)
        assert str(got.value) == str(want.value)


def test_zeta_power_one_is_zeta():
    for n in (1, 2, 5, 6, 12, 99):
        z, w = fresh(construct_zeta, n), zeta_power(n, 1)
        assert [(v.sign, v.mantissa, v.exponent) for v in (z.a, z.b)] == [
            (v.sign, v.mantissa, v.exponent) for v in (w.re, w.im)]


def test_zeta_power_orders_at_32_bits():
    # zeta.pow(m) carried an error near n m 2**-32, past the tolerance
    # 2**-16 from (n, m) = (326, 325) on: NotARoot
    wrong = []
    for n in (326, 327, 1000, 1001):
        for m in range(1, n + 1):
            got = multiplicative_order(zeta_power(n, m, 32), n).order
            if got != n // math.gcd(m, n):
                wrong.append((n, m, got))
    assert not wrong


def test_alternate_precision():
    z = construct_zeta(6, precision=192)
    assert z.precision == 192
    assert abs(exact(z.a) - Fraction(1, 2)) <= Fraction(1, 2 ** 180)


def worst_ulp(ns):
    """The largest error of a component of construct_zeta(n), n in ns, in
    ulps of a 128-bit value, against cos and sin (2 pi / n) at 400 bits."""
    worst = Fraction(0)
    with mpmath.workprec(400):
        for n in ns:
            z = construct_zeta(n)
            angle = 2 * mpmath.pi / n
            for got, want in ((z.a, mpmath.cos(angle)), (z.b, mpmath.sin(angle))):
                man, exp = want.man_exp  # the mantissa of |want|
                mag = Fraction(man) * Fraction(2) ** exp
                top = mag.numerator.bit_length() - mag.denominator.bit_length()
                if Fraction(2) ** top > mag:
                    top -= 1
                ulp = Fraction(2) ** (top - 127)  # of a 128-bit value at want
                ref = -mag if want < 0 else mag
                worst = max(worst, abs(exact(got) - ref) / ulp)
    return worst


def test_even_zeta_is_correctly_rounded():
    # the fixed-point Newton stage keeps 64 guard bits below the last bit of
    # each root, so the components of zeta(n) are cos and sin (2 pi / n)
    # rounded to nearest (0.57 ulp off at n = 6 before it)
    worst = worst_ulp(range(6, 151, 2))
    assert worst <= Fraction(1, 2), float(worst)


def test_odd_zeta_is_correctly_rounded():
    # the square of the rounded zeta(2n) was up to 1.81 ulp off (n = 69)
    worst = worst_ulp(range(3, 150, 2))
    assert worst <= Fraction(1, 2), float(worst)


def test_zeta_2048_at_32_bits():
    # the two smallest |w - 1| differ by about 2 pi/2048 < 2**-8, the old
    # absolute tie gap: AmbiguousMinimizer after a correct solve
    z = fresh(construct_zeta, 2048, 32)
    want = trig_root(2048, 1, 32).value
    tol = HPReal.pow2(-28, 32)
    assert abs(z.a - want.re) <= tol and abs(z.b - want.im) <= tol
