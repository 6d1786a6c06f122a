"""The fixed-point kernel against exact integer arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unityroot import HPReal, NoConvergence, fixed
from conftest import exact

FRAC = 128 + fixed.GUARD_BITS
ONE = 1 << FRAC


def exact_power(a, n):
    """(A + iB)**n in exact integers, for a pair scaled by 2**FRAC the result
    is scaled by 2**(FRAC * n)."""
    out = (1, 0)
    for _ in range(n):
        out = (out[0] * a[0] - out[1] * a[1], out[0] * a[1] + out[1] * a[0])
    return out


BASES = [
    (0, 0), (ONE, 0), (-ONE, 0), (0, ONE), (0, -ONE), (ONE, ONE),
    # unit-scale values with full-width fractions, one just outside |a| = 1
    ((ONE * 3) // 5 + 12345, (ONE * 4) // 5 - 6789),
    (-(ONE * 7) // 10, (ONE * 5) // 7),
    ((ONE * 1001) // 1000, -(ONE // 3)),
]


@pytest.mark.parametrize("a", BASES)
def test_power_within_derived_error_bound(a):
    for n in list(range(1, 40)) + [63, 64, 65, 127, 128, 200, 255, 299, 300]:
        got = fixed.power(a, n, FRAC)
        want = exact_power(a, n)
        bound = fixed.power_error(a, n, FRAC)
        # |got - want / 2**(FRAC (n - 1))| <= bound, compared squared
        scale = 1 << (FRAC * (n - 1))
        dr, di = got[0] * scale - want[0], got[1] * scale - want[1]
        assert dr * dr + di * di <= (bound * scale) ** 2, (a, n)


def test_power_of_gaussian_integers_is_exact():
    # 0, +-1, +-i and 1 + i have Gaussian-integer powers: no floor drops a bit
    for a in BASES[:6]:
        assert fixed.power(a, 0, FRAC) == (ONE, 0)
        for n in range(1, 20):
            want = exact_power(a, n)
            assert fixed.power(a, n, FRAC) == (want[0] >> (FRAC * (n - 1)),
                                               want[1] >> (FRAC * (n - 1)))


def test_error_bound_grows_with_n_and_modulus():
    unit = (ONE, 0)
    assert fixed.power_error(unit, 1, FRAC) == 0
    small = fixed.power_error(unit, 300, FRAC)
    assert 2 * 299 <= small <= 2 * 299 + 1
    assert fixed.power_error((2 * ONE, 0), 300, FRAC) > small << 298


def test_power_up_is_an_upper_bound():
    # the one upward ladder, against the exact power of w * 2**-64: at or
    # above it, and above it by a few units of 2**-64 per step at most
    scale = 1 << fixed.BOUND_BITS
    for w in (0, 1, scale - 1, scale, scale + 1, 3 * scale // 2, 2 * scale,
              scale + (scale >> 20)):
        for e in (0, 1, 2, 3, 7, 64, 255, 4096, 32767):
            got = fixed.power_up(w, e)
            want = Fraction(w, scale) ** e
            slack = Fraction(4 * e + 1, scale)
            assert want <= Fraction(got, scale) <= want * (1 + slack) + slack, (w, e)


def test_to_fixed_exact_and_truncating():
    x = HPReal.from_ratio(-5, 3)
    f = fixed.exact_frac(x, 10)
    assert Fraction(fixed.to_fixed(x, f), 1 << f) == exact(x)
    # below the exact scale the low bits are cut toward zero
    t = fixed.to_fixed(x, 10)
    assert t == -int(-exact(x) * 1024)
    assert fixed.to_fixed(HPReal.zero(), 50) == 0
    assert fixed.exact_frac(HPReal.zero(), 7) == 7


def test_rounding_back_is_once_and_to_nearest_even():
    frac = 200
    for v in (1, -1, 3 << 150, (1 << 140) + (1 << 11) + 1, -(1 << 140) - (3 << 11),
              (1 << 140) + (1 << 12), (1 << 140) + (3 << 12)):
        got = fixed.to_hpreal(v, frac, 128)
        assert got == HPReal.from_ratio(v, 1 << frac, 128)


@st.composite
def rounding_cases(draw):
    """(v, precision): v a signed integer of `precision` kept bits and
    `drop` bits below them; the low bits are often exactly half a unit (a
    tie) and the kept bits often all ones (a carry into 2**precision)."""
    precision = draw(st.integers(32, 160))
    drop = draw(st.integers(1, 80))
    keep = draw(st.one_of(st.just((1 << precision) - 1),
                          st.integers(1 << (precision - 1), (1 << precision) - 1)))
    low = draw(st.one_of(st.just(1 << (drop - 1)),
                         st.integers(0, (1 << drop) - 1)))
    return draw(st.sampled_from((1, -1))) * ((keep << drop) | low), precision


@settings(max_examples=400, deadline=None)
@given(st.one_of(rounding_cases(),
                 st.tuples(st.integers(-(1 << 300), 1 << 300),
                           st.integers(32, 200))),
       st.integers(0, 300))
@example(((((1 << 32) - 1) << 8) | (1 << 7), 32), 96)  # odd tie: carry
@example((((1 << 31) << 8) | (1 << 7), 32), 96)  # even tie: stays
def test_round_bits_is_one_rounding_to_precision(case, frac):
    v, precision = case
    assert fixed.round_bits(v, precision) == fixed.to_fixed(
        fixed.to_hpreal(v, frac, precision), frac)


def test_round_bits_ties_and_carry():
    assert fixed.round_bits((((1 << 32) - 1) << 8) | (1 << 7), 32) == 1 << 40
    assert fixed.round_bits(-((((1 << 32) - 1) << 8) | (1 << 7)), 32) == -(1 << 40)
    assert fixed.round_bits(((1 << 31) << 8) | (1 << 7), 32) == 1 << 39
    assert fixed.round_bits((((1 << 31) + 1) << 8) | (1 << 7), 32) == ((1 << 31) + 2) << 8
    assert fixed.round_bits(12345, 32) == 12345 and fixed.round_bits(0, 32) == 0


def test_upward_rounding_is_an_upper_bound_within_one_ulp():
    frac = 200
    for v in (1, (1 << 128) - 1, (1 << 128) + 1, (1 << 140) - 1, (1 << 150) + 12345):
        got = exact(fixed.to_hpreal_up(v, frac, 128))
        val = Fraction(v, 1 << frac)
        assert val <= got < val * (1 + Fraction(1, 1 << 127))
    assert fixed.to_hpreal_up(0, frac, 128).is_zero()


def test_newton_step_degree_one_is_exact():
    y, c = (ONE * 3, -ONE // 7), (ONE // 5, ONE)
    assert fixed.newton_step(y, c, 1, FRAC) == (y[0] - c[0], y[1] - c[1])


# z**5 = c for c = r**5, r = 3/4 - 5/8 i, both exact at FRAC
ROOT = (ONE * 3 // 4, -(ONE * 5) // 8)
TARGET = tuple(v >> (4 * FRAC) for v in exact_power(ROOT, 5))


def counted_steps(monkeypatch):
    steps = []
    step = fixed.newton_step

    def counted(*args):
        steps.append(step(*args))
        return steps[-1]

    monkeypatch.setattr(fixed, "newton_step", counted)
    return steps


def test_newton_stops_at_the_first_small_step(monkeypatch):
    steps = counted_steps(monkeypatch)
    y = fixed.newton((ROOT[0] + (ONE >> 40), ROOT[1] - (ONE >> 41)), TARGET, 5, FRAC)
    # (n - 1) |d|**2 <= 2**-FRAC holds at the last step and at no earlier one
    small = [4 * (d[0] ** 2 + d[1] ** 2) <= ONE for d in steps]
    assert small[-1] and not any(small[:-1]) and len(steps) == 3
    assert abs(y[0] - ROOT[0]) <= 4 and abs(y[1] - ROOT[1]) <= 4


def test_newton_gives_up_after_frac_bit_length_steps(monkeypatch):
    # from 2**60 the steps shrink y by about 4/5 each, far too slowly
    steps = counted_steps(monkeypatch)
    with pytest.raises(NoConvergence):
        fixed.newton((ONE << 60, 0), TARGET, 5, FRAC)
    assert len(steps) == FRAC.bit_length()
