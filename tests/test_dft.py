from fractions import Fraction

import mpmath
import pytest

from unityroot import (HPComplex, HPReal, InvalidN, construct_zeta,
                       dft_forward, dft_inverse, twiddle_table)
from conftest import exact, sample_complexes


def forward(t, k):
    """The forward kernel conj(zeta)^k: entry -k mod n of the table."""
    return t.inverse[-k % t.n]


def test_single_point_table():
    t = twiddle_table(1)
    assert t.inverse == (HPComplex.one(),)


def test_n4_forward_kernel():
    t = twiddle_table(4)
    want = [HPComplex.one(), HPComplex(HPReal.zero(), -HPReal.one()),
            HPComplex.from_int(-1), HPComplex.i()]
    for got, expect in zip((forward(t, k) for k in range(4)), want):
        assert (got - expect).abs2() <= HPReal.pow2(-200)


def test_n6_first_forward_entry_is_conjugate_of_zeta():
    t = twiddle_table(6)
    z = construct_zeta(6).as_complex()
    assert forward(t, 1) == z.conj()


def test_forward_zero_is_exactly_one():
    for n in (1, 5, 16):
        assert forward(twiddle_table(n), 0) == HPComplex.one()


def test_forward_inverse_pairs_multiply_to_one():
    t = twiddle_table(16)
    one = HPComplex.one()
    tol2 = HPReal.pow2(-238)
    for k, inv in enumerate(t.inverse):
        assert ((forward(t, k) * inv) - one).abs2() <= tol2


def test_reanchoring_bounds_drift():
    n = 48
    t = twiddle_table(n)
    w = construct_zeta(n).as_complex()
    worst = Fraction(0)
    for k in range(n):
        drift = (forward(t, k) - w.pow(k).conj()).abs2()
        worst = max(worst, exact(drift))
    assert worst <= Fraction(1, 2 ** 224)  # (2**-112)**2


@pytest.mark.parametrize("precision", [32, 128])
def test_every_twiddle_is_rounded_once(precision):
    # each component lies within half an ulp at its own scale, plus
    # 2**-(precision + 32), of cos and sin (2 pi k / n) at 400 bits
    slack = Fraction(1, 2 ** (precision + 32))
    worst = Fraction(0)
    with mpmath.workprec(400):
        for n in (3, 7, 48, 64, 1024):
            t = twiddle_table(n, precision)
            for k, z in enumerate(t.inverse):
                turn = mpmath.mpf(2 * k) / n
                for got, want in ((z.re, mpmath.cospi(turn)),
                                  (z.im, mpmath.sinpi(turn))):
                    man, exp = want.man_exp  # the mantissa of |want|
                    mag = Fraction(man) * Fraction(2) ** exp
                    half_ulp = Fraction(0)
                    if man:
                        top = exp + man.bit_length() - 1  # 2**top <= mag
                        half_ulp = Fraction(2) ** (top - precision)
                    ref = -mag if want < 0 else mag
                    worst = max(worst, abs(exact(got) - ref) / (half_ulp + slack))
    assert worst <= 1, float(worst)


# n in 2..300 and around 2**10 and 2**12, at 32, 53, 128 and 256 bits
INVARIANT_NS = list(range(2, 301)) + [1023, 1024, 1025, 4095, 4096]


@pytest.mark.parametrize("precision", [32, 53, 128, 256])
def test_table_is_the_unity_root_set_read_as_powers(precision):
    # entry 1 is zeta itself, the table is closed under conjugation bit for
    # bit, and 1, i, -1, -i sit exactly at k = 0, n/4, n/2, 3n/4
    one, zero = HPReal.one(precision), HPReal.zero(precision)
    axis = [HPComplex(one, zero), HPComplex(zero, one),
            HPComplex(-one, zero), HPComplex(zero, -one)]
    bad = []
    for n in INVARIANT_NS:
        w = twiddle_table(n, precision).inverse
        if w[1] != construct_zeta(n, precision).as_complex():
            bad.append((n, "zeta"))
        if any(w[n - k] != w[k].conj() for k in range(1, n)):
            bad.append((n, "conjugate"))
        if any(w[q * n // 4] != z for q, z in enumerate(axis) if q * n % 4 == 0):
            bad.append((n, "axis"))
    assert not bad


def test_delta_transforms_to_ones():
    x = [HPComplex.one()] + [HPComplex.zero()] * 3
    X = dft_forward(x)
    for v in X:
        assert (v - HPComplex.one()).abs2() <= HPReal.pow2(-200)


def test_constant_transforms_to_scaled_delta():
    x = [HPComplex.one()] * 4
    X = dft_forward(x)
    assert (X[0] - HPComplex.from_int(4)).abs2() <= HPReal.pow2(-200)
    for v in X[1:]:
        assert v.abs2() <= HPReal.pow2(-200)


def test_inverse_of_scaled_delta_is_ones():
    X = [HPComplex.from_int(5)] + [HPComplex.zero()] * 4
    x = dft_inverse(X)
    for v in x:
        assert (v - HPComplex.one()).abs2() <= HPReal.pow2(-200)


def test_round_trip_random_vectors():
    tol2 = HPReal.pow2(-120)
    for n in (3, 8, 11):
        xs = sample_complexes(n, seed=n)
        back = dft_inverse(dft_forward(xs))
        for a, b in zip(back, xs):
            assert (a - b).abs2() <= tol2


def test_parseval_energy_identity():
    for n in (5, 8):
        xs = sample_complexes(n, seed=20 + n)
        Xs = dft_forward(xs)
        time_energy = exact(sum((z.abs2() for z in xs), HPReal.zero()))
        freq_energy = exact(sum((z.abs2() for z in Xs), HPReal.zero()))
        assert abs(time_energy - freq_energy / n) <= Fraction(1, 2 ** 60)


def test_empty_input_rejected():
    with pytest.raises(InvalidN):
        dft_forward([])
    with pytest.raises(InvalidN):
        twiddle_table(0)


def test_table_cache_hits():
    assert twiddle_table(12) is twiddle_table(12)
