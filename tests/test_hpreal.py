import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unityroot import DivisionByZero, HPReal, NegativeSqrt, hpreal
from unityroot.hpreal import DECIMAL_MAX_MAGNITUDE
from conftest import clear_caches, exact, sample_reals


def ulp(x: HPReal) -> Fraction:
    return Fraction(1, 1) * Fraction(2) ** x.exponent


class TestBasicArithmetic:
    def test_one_plus_one(self):
        assert HPReal.from_int(1) + HPReal.from_int(1) == HPReal.from_int(2)

    def test_multiplication_by_zero_absorbs(self):
        for v in sample_reals(10, Fraction(-5), Fraction(5)):
            assert (v * HPReal.zero()).is_zero()

    def test_third_at_64_bits_matches_integer_oracle(self):
        # oracle: round-half-even of 2**65 / 3 done directly on integers
        q, r = divmod(1 << 65, 3)
        assert 2 * r > 3  # above half, so the oracle rounds up
        expected_mantissa = q + 1
        x = HPReal.from_int(1, 64) / HPReal.from_int(3, 64)
        assert (x.sign, x.mantissa, x.exponent) == (1, expected_mantissa, -65)
        rel_err = abs(exact(x) - Fraction(1, 3)) / Fraction(1, 3)
        assert rel_err < Fraction(1, 2 ** 63)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            HPReal.from_int(1) / HPReal.zero()

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            HPReal.from_int(1, 16)

    def test_result_precision_is_max_of_operands(self):
        out = HPReal.from_int(3, 64) * HPReal.from_int(5, 192)
        assert out.precision == 192

    def test_round_half_to_even_tie(self):
        # 2**32 + 3 sits exactly between two 32-bit values; the even one wins
        x = HPReal.from_int((1 << 32) + 3, 32)
        assert exact(x) == Fraction((1 << 32) + 4)
        y = HPReal.from_int((1 << 32) + 1, 32)
        assert exact(y) == Fraction(1 << 32)

    def test_negative_zero_canonicalized(self):
        z = HPReal.from_int(5) - HPReal.from_int(5)
        assert z.sign == 0 and z.mantissa == 0 and z.exponent == 0

    def test_int_operands_coerce(self):
        x = HPReal.from_ratio(1, 4)
        assert x * 4 == 1
        assert 1 - x == HPReal.from_ratio(3, 4)


class TestSqrt:
    def test_sqrt_zero(self):
        assert HPReal.zero().sqrt().is_zero()

    def test_sqrt_perfect_square_exact(self):
        assert HPReal.from_int(4).sqrt() == HPReal.from_int(2)
        assert HPReal.from_int(1 << 20).sqrt() == HPReal.from_int(1 << 10)

    def test_sqrt_two_matches_isqrt_oracle(self):
        # oracle: math.isqrt of the identically scaled integer, rounded the
        # same way by hand
        x = HPReal.from_int(2, 128)
        scaled = x.mantissa << 134  # mirrors the documented scaling: 2**261
        root = math.isqrt(scaled)
        assert root * root != scaled
        drop = root.bit_length() - 128
        keep, rem = root >> drop, (root & ((1 << drop) - 1)) | 1
        if rem > (1 << (drop - 1)) or (rem == 1 << (drop - 1) and keep & 1):
            keep += 1
        got = x.sqrt()
        assert got.mantissa == keep
        squared_err = abs(exact(got) ** 2 - 2)
        assert squared_err < Fraction(1, 2 ** 126)

    def test_sqrt_negative_raises(self):
        with pytest.raises(NegativeSqrt):
            (-HPReal.from_int(1)).sqrt()

    def test_sqrt_contract_bound(self):
        for x in sample_reals(40, Fraction(1, 1024), Fraction(1024)):
            r = x.sqrt()
            err = abs(exact(r) ** 2 - exact(x))
            assert err <= Fraction(1, 2 ** 125) * exact(x)


class TestCorrectRounding:
    """Every operation is correctly rounded: the result is within half an
    ulp of the exact rational answer (fractions are the oracle)."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 24, 10 ** 24), st.integers(-10 ** 24, 10 ** 24),
           st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
    def test_add_mul_div_within_half_ulp(self, an, bn, ad, bd):
        a = HPReal.from_ratio(an, ad)
        b = HPReal.from_ratio(bn, bd)
        ea, eb = exact(a), exact(b)
        for got, want in [
            (a + b, ea + eb),
            (a - b, ea - eb),
            (a * b, ea * eb),
        ]:
            if got.is_zero():
                assert want == 0
            else:
                assert abs(exact(got) - want) <= ulp(got) / 2
        if not b.is_zero():
            got = a / b
            want = ea / eb
            if got.is_zero():
                assert want == 0
            else:
                assert abs(exact(got) - want) <= ulp(got) / 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
    def test_from_ratio_correctly_rounded(self, num, den):
        x = HPReal.from_ratio(num, den)
        want = Fraction(num, den)
        if x.is_zero():
            assert want == 0
        else:
            assert abs(exact(x) - want) <= ulp(x) / 2

    def test_capped_alignment_still_rounds_correctly(self):
        # operand 200 bits below the top must act as a pure sticky bit
        big = HPReal.from_int(1)
        tiny = HPReal.pow2(-200)
        s = big + tiny
        assert s == big  # rounds back (1 + 2**-200 is below half an ulp)
        d = big - tiny
        # 1 - 2**-200 rounds to 1 at 128 bits (gap to next value is 2**-128)
        assert d == big


class TestFieldProperties:
    def test_associativity_bound(self):
        prec = 128
        vals = sample_reals(30, Fraction(-3), Fraction(3), prec)
        bound = Fraction(4, 2 ** (prec - 2))
        for i in range(len(vals) - 2):
            a, b, c = vals[i], vals[i + 1], vals[i + 2]
            left = (a + b) + c
            right = a + (b + c)
            mags = [abs(exact(v)) for v in (a, b, c)] + [Fraction(1)]
            assert abs(exact(left) - exact(right)) <= bound * max(mags)

    def test_commutativity_exact(self):
        vals = sample_reals(20, Fraction(-7), Fraction(7))
        for i in range(0, len(vals) - 1, 2):
            a, b = vals[i], vals[i + 1]
            assert a + b == b + a
            assert a * b == b * a

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10 ** 18), st.integers(1, 10 ** 9))
    def test_sqrt_square_relative_band(self, num, den):
        # x in [2**-10, 2**10] per the contract band
        q = Fraction(num, den)
        if q < Fraction(1, 1024) or q > 1024:
            q = Fraction(1, 1024) + (q % Fraction(1023))
        x = HPReal.from_ratio(q.numerator, q.denominator)
        r = x.sqrt()
        sq = exact(r) ** 2
        lo = exact(x) * (1 - Fraction(1, 2 ** 125))
        hi = exact(x) * (1 + Fraction(1, 2 ** 125))
        assert lo <= sq <= hi


class TestComparisons:
    def test_exact_ordering(self):
        one = HPReal.from_int(1)
        tiny = HPReal.pow2(-100)
        assert one < one + tiny
        assert one + tiny > one
        assert not one < one
        assert -one < one
        assert HPReal.zero() < tiny

    def test_cross_precision_value_equality(self):
        assert HPReal.from_int(7, 64) == HPReal.from_int(7, 256)

    def test_float_rejected_in_arithmetic(self):
        with pytest.raises(TypeError):
            HPReal.from_int(1) + 0.5


class TestDecimalSerialization:
    def test_round_trip_exact(self):
        samples = sample_reals(50, Fraction(-100), Fraction(100))
        samples += [HPReal.pow2(-200), HPReal.pow2(137),
                    HPReal.from_int(10 ** 30), HPReal.zero(),
                    -HPReal.from_ratio(1, 3)]
        for x in samples:
            text = x.decimal()
            back = HPReal.from_decimal(text, x.precision)
            assert back == x, text

    def test_round_trip_other_precisions(self):
        for prec in (32, 64, 192, 256):
            x = HPReal.from_ratio(22, 7, prec)
            assert HPReal.from_decimal(x.decimal(), prec) == x

    def test_digit_scale_is_memoised_per_shift_and_bounded(self):
        # one (ndigits, 10**ndigits) per fraction width, found and emptied
        # by clear_caches, and the strings are those of a cold cache
        values = [HPReal.pow2(-k, 64) * 3 for k in range(600)]
        clear_caches()
        cold = []
        for x in values:
            cold.append(x.decimal())
            hpreal._decimal_cache.clear()
        assert [x.decimal() for x in values] == cold
        assert 0 < len(hpreal._decimal_cache) <= hpreal._DECIMAL_CACHE_SIZE
        for shift, (ndigits, ten) in hpreal._decimal_cache.items():
            assert ndigits == len(str(1 << (shift + 2))) and ten == 10 ** ndigits
        clear_caches()
        assert not hpreal._decimal_cache

    def test_known_strings(self):
        assert HPReal.zero().decimal() == "0"
        assert HPReal.from_int(42).decimal() == "42"
        assert HPReal.from_ratio(-1, 2).decimal() == "-0.5"

    def test_round_trip_past_the_interpreter_digit_limit(self):
        # str() and int() refuse integers of more than 4300 digits: 2**40002,
        # behind the digit count of 2**-40000, and the digits of the others
        samples = [HPReal.pow2(40000), HPReal.pow2(-40000),
                   -HPReal.from_ratio(1, 3, 15000),
                   HPReal.from_ratio(10 ** 20 + 7, 3, 15000).scale2(-30000)]
        for x in samples:
            text = x.decimal()
            assert len(text) > 4300
            back = HPReal.from_decimal(text, x.precision)
            assert (back.sign, back.mantissa, back.exponent) == (
                x.sign, x.mantissa, x.exponent)

    def test_long_strings_match_the_unlimited_conversion(self):
        # the split conversion against str/int with the limit lifted
        x = HPReal.from_ratio(-22, 7, 15000).scale2(20000)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = "-" + str(x.mantissa << x.exponent)
            digits = "9" * 5000 + "1" * 5000
            value = int(digits)
        finally:
            sys.set_int_max_str_digits(saved)
        assert x.decimal() == want
        assert HPReal.from_decimal("0." + digits, 256) == HPReal.from_ratio(
            value, 10 ** 10000, 256)

    def test_round_trip_at_the_magnitude_extremes(self):
        # leading digits at 10**+-DECIMAL_MAX_MAGNITUDE: the integer string
        # at the top has DECIMAL_MAX_MAGNITUDE + 1 significant digits, the
        # most decimal() writes inside the bound
        for prec in (32, 1000):
            for text in (f"9.99e{DECIMAL_MAX_MAGNITUDE}",
                         f"-1.2345678901234567890123e{DECIMAL_MAX_MAGNITUDE}",
                         f"1.01e-{DECIMAL_MAX_MAGNITUDE}",
                         f"-3.3e-{DECIMAL_MAX_MAGNITUDE}"):
                x = HPReal.from_decimal(text, prec)
                back = HPReal.from_decimal(x.decimal(), prec)
                assert (back.sign, back.mantissa, back.exponent) == (
                    x.sign, x.mantissa, x.exponent), (prec, text)
        # values that round one decade out: 1e-100000 rounds below
        # 10**-100000 at 32 and 53 bits, and sixty nines at the top round up
        # to 10**(DECIMAL_MAX_MAGNITUDE + 1) or past it, so each decimal()
        # string leads outside the bound and still parses back
        for prec in (32, 53, 128):
            for text in (f"1e-{DECIMAL_MAX_MAGNITUDE}",
                         "-" + "9" * 60 + f"e{DECIMAL_MAX_MAGNITUDE - 59}"):
                x = HPReal.from_decimal(text, prec)
                back = HPReal.from_decimal(x.decimal(), prec)
                assert (back.sign, back.mantissa, back.exponent) == (
                    x.sign, x.mantissa, x.exponent), (prec, text)
            # values that round outside are still refused
            for text in (f"9e-{DECIMAL_MAX_MAGNITUDE + 1}",
                         f"1.1e{DECIMAL_MAX_MAGNITUDE + 1}"):
                with pytest.raises(ValueError, match="magnitude"):
                    HPReal.from_decimal(text, prec)

    def test_digit_count_is_bounded(self):
        # a million digits took seconds and grew faster than linearly; the
        # fraction's trailing zeros are dropped exactly, then more than
        # DECIMAL_MAX_MAGNITUDE + precision significant digits are refused
        start = time.perf_counter()
        assert HPReal.from_decimal("1." + "0" * 10 ** 6) == 1
        # a whole part's trailing zeros are not significant either
        assert HPReal.from_decimal("1" + "0" * 200000 + "e-200000") == 1
        assert HPReal.from_decimal("25" + "0" * 200000 + ".000e-200002") == (
            HPReal.from_ratio(1, 4))
        with pytest.raises(ValueError, match="significant digits"):
            HPReal.from_decimal("1." + "1" * 10 ** 6)
        assert time.perf_counter() - start < 1.0
        most = DECIMAL_MAX_MAGNITUDE + 32
        assert HPReal.from_decimal("0." + "3" * most + "000", 32) == (
            HPReal.from_ratio(1, 3, 32))
        with pytest.raises(ValueError, match="significant digits"):
            HPReal.from_decimal("0." + "3" * (most + 1), 32)

    def test_parse_exponent_forms(self):
        assert HPReal.from_decimal("1e3") == 1000
        assert HPReal.from_decimal("2.5e-1") == HPReal.from_ratio(1, 4)
        assert HPReal.from_decimal("-0.125") == HPReal.from_ratio(-1, 8)

    def test_parse_garbage_raises(self):
        for bad in ("", ".", "abc", "1.2.3", "--5"):
            with pytest.raises(ValueError):
                HPReal.from_decimal(bad)

    def test_digit_budget_covers_precision(self):
        # ceil(128*log10(2)) + 2 = 41 digits suffice; the fraction field
        # never needs to exceed the documented budget for unit-scale values
        x = HPReal.from_ratio(1, 3)
        digits = x.decimal().split(".")[1]
        assert len(digits) >= 40


class TestConversions:
    def test_from_float_exact_dyadic(self):
        x = HPReal.from_float(0.359375)  # 23/64, exactly representable
        assert exact(x) == Fraction(23, 64)

    def test_from_float_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                HPReal.from_float(bad)

    def test_to_float_near(self):
        x = HPReal.from_ratio(355, 113)
        assert abs(x.to_float() - 355 / 113) < 1e-15

    def test_scale2_exact(self):
        x = HPReal.from_ratio(3, 7)
        assert x.scale2(5) == x * 32
        assert x.scale2(-3) == x / 8

    def test_with_precision_widen_then_narrow(self):
        x = HPReal.from_ratio(1, 3, 64)
        wide = x.with_precision(256)
        assert wide == x
        narrow = HPReal.from_ratio(1, 3, 256).with_precision(64)
        assert narrow == HPReal.from_ratio(1, 3, 64)
