from fractions import Fraction

import pytest

from unityroot import (CertificateFailure, DomainViolation, HPReal, InvalidN,
                       Zeta, advance_re, advance_re_derivative,
                       build_certificate, construct_zeta, descent_sequence,
                       retreat_re, solve_unity)
from unityroot.descent import _arc_exclusion_ok, _gap2_scaled
from conftest import exact, sample_reals

TOL_120 = Fraction(1, 2 ** 120)


@pytest.fixture(scope="module")
def zeta6():
    return construct_zeta(6)


@pytest.fixture(scope="module")
def zeta8():
    return construct_zeta(8)


class TestAdvanceMap:
    def test_at_one_gives_a(self, zeta6):
        # sqrt(1-x^2) vanishes exactly at x = 1, so no tolerance is needed
        assert advance_re(HPReal.one(), zeta6) == zeta6.a

    def test_at_minus_a_gives_minus_one(self, zeta6):
        got = advance_re(-zeta6.a, zeta6)
        assert abs(exact(got) + 1) <= TOL_120

    def test_half_maps_to_minus_half(self, zeta6):
        # a=1/2, b=sqrt(3)/2: 0.5*0.5 - (sqrt3/2)^2 = 0.25 - 0.75 = -0.5
        got = advance_re(HPReal.from_ratio(1, 2), zeta6)
        assert abs(exact(got) + Fraction(1, 2)) <= TOL_120

    def test_domain_violation(self, zeta6):
        with pytest.raises(DomainViolation):
            advance_re(HPReal.from_ratio(11, 10), zeta6)
        with pytest.raises(DomainViolation):
            advance_re(-zeta6.a - HPReal.pow2(-10), zeta6)

    def test_clamping_band_accepted(self, zeta6):
        # within 2**-64 of the boundary the argument clamps instead of failing
        got = advance_re(HPReal.one() + HPReal.pow2(-100), zeta6)
        assert got == zeta6.a


class TestRetreatMap:
    def test_at_minus_one(self, zeta6):
        got = retreat_re(-HPReal.one(), zeta6)
        assert abs(exact(got) + exact(zeta6.a)) <= TOL_120

    def test_at_a_gives_one(self, zeta6):
        # a*a + b*b = 1 on the unit circle
        got = retreat_re(zeta6.a, zeta6)
        assert abs(exact(got) - 1) <= TOL_120

    def test_inverts_advance_example(self, zeta6):
        got = retreat_re(HPReal.from_ratio(-1, 2), zeta6)
        assert abs(exact(got) - Fraction(1, 2)) <= TOL_120

    def test_domain_violation(self, zeta6):
        with pytest.raises(DomainViolation):
            retreat_re(zeta6.a + HPReal.pow2(-10), zeta6)


class TestInverseProperty:
    def test_round_trips_both_ways(self):
        for n in (6, 12):
            zeta = construct_zeta(n)
            tol = Fraction(1, 2 ** 120)
            lo_x, hi_x = -exact(zeta.a), Fraction(1)
            for x in sample_reals(100, lo_x, hi_x, seed=5):
                back = retreat_re(advance_re(x, zeta), zeta)
                assert abs(exact(back) - exact(x)) <= tol
            lo_y, hi_y = Fraction(-1), exact(zeta.a)
            for y in sample_reals(100, lo_y, hi_y, seed=9):
                back = advance_re(retreat_re(y, zeta), zeta)
                assert abs(exact(back) - exact(y)) <= tol

    def test_strict_monotonicity_spot(self, zeta6):
        xs = sample_reals(50, -exact(zeta6.a), Fraction(1), seed=11)
        vals = sorted(xs)
        images = [advance_re(x, zeta6) for x in vals]
        for lo, hi in zip(images, images[1:]):
            assert lo < hi


class TestDerivative:
    def test_at_zero_is_a(self, zeta6):
        assert advance_re_derivative(HPReal.zero(), zeta6) == zeta6.a

    def test_at_half_for_n6_is_one(self, zeta6):
        got = advance_re_derivative(HPReal.from_ratio(1, 2), zeta6)
        assert abs(exact(got) - 1) <= TOL_120

    def test_matches_central_difference(self):
        # high-precision finite differences are the independent oracle
        prec = 256
        zeta = construct_zeta(6, precision=prec)
        h = HPReal.pow2(-40, prec)
        for x in sample_reals(20, Fraction(-2, 5), Fraction(99, 100), prec, seed=13):
            d = advance_re_derivative(x, zeta)
            fd = (advance_re(x + h, zeta) - advance_re(x - h, zeta)) / (h * 2)
            rel = abs(exact(d) - exact(fd)) / abs(exact(d))
            assert rel < Fraction(1, 2 ** 30)

    def test_positive_on_open_domain(self, zeta8):
        for x in sample_reals(40, -exact(zeta8.a) + Fraction(1, 1000),
                              Fraction(99, 100), seed=17):
            assert advance_re_derivative(x, zeta8) > HPReal.zero()

    def test_singular_guard(self, zeta6):
        with pytest.raises(DomainViolation):
            advance_re_derivative(HPReal.one() - HPReal.pow2(-120), zeta6)
        with pytest.raises(DomainViolation):
            advance_re_derivative(-zeta6.a, zeta6)


class TestDescentSequence:
    def test_n6_explicit_values(self, zeta6):
        xs, p = descent_sequence(zeta6)
        assert p == 3
        want = [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-1)]
        for got, expect in zip(xs, want):
            assert abs(exact(got) - expect) <= TOL_120

    def test_n8_explicit_values(self, zeta8):
        xs, p = descent_sequence(zeta8)
        assert p == 4
        rt = exact(HPReal.from_ratio(1, 2).sqrt())
        want = [Fraction(1), rt, Fraction(0), -rt, Fraction(-1)]
        for got, expect in zip(xs, want):
            assert abs(exact(got) - expect) <= TOL_120

    def test_first_step_is_exactly_a(self, zeta6):
        xs, _ = descent_sequence(zeta6)
        assert xs[0] == HPReal.one()
        assert xs[1] == zeta6.a

    def test_trivial_n_rejected(self):
        with pytest.raises(InvalidN):
            descent_sequence(construct_zeta(4))

    def test_step_budget_enforced(self, zeta8):
        with pytest.raises(InvalidN):
            descent_sequence(zeta8, max_steps=4)


class TestCertificate:
    def test_n6_all_checks(self, zeta6):
        cert = build_certificate(zeta6, solve_unity(6))
        assert cert.checks.all_passed
        assert cert.p == 3
        assert cert.n == 6
        assert cert.tolerance == HPReal.pow2(-64)

    def test_n30_and_real_part_identity(self):
        zeta = construct_zeta(30)
        cert = build_certificate(zeta, solve_unity(30))
        assert cert.checks.all_passed and cert.p == 15
        w = zeta.as_complex()
        for k, x in enumerate(cert.xs):
            assert abs(exact(x) - exact(w.pow(k).re)) <= Fraction(1, 2 ** 64)

    def test_equal_arc_spacing(self):
        # |zeta^(k+1) - zeta^k| = |zeta - 1| along the whole circle
        zeta = construct_zeta(12)
        w = zeta.as_complex()
        for k in range(12):
            step = abs(w.pow(k + 1) - w.pow(k))
            assert abs(exact(step) - exact(zeta.r)) <= Fraction(1, 2 ** 120)

    def test_half_power_is_minus_one(self):
        # the descent endpoint is mirrored by zeta^p = -1 on the circle
        from unityroot import HPComplex

        minus_one = HPComplex.from_int(-1)
        for n in (6, 12, 20):
            zeta = construct_zeta(n)
            power = zeta.as_complex().pow(n // 2)
            assert (power - minus_one).abs2() <= HPReal.pow2(-128)

    def test_non_primitive_zeta_fails_certificate(self, zeta6):
        w = zeta6.as_complex()
        sq = w * w  # order 3, not primitive for n = 6
        fake = Zeta(n=6, a=sq.re, b=sq.im,
                    r=abs(sq - type(sq).one(sq.precision)), precision=128)
        with pytest.raises(CertificateFailure) as info:
            build_certificate(fake, solve_unity(6))
        failed = info.value.failed
        assert "p_equals_half_n" in failed
        assert "endpoint_minus_one" in failed
        assert info.value.certificate.p == 1  # advance_re(1) = Re(zeta^2) < -a

    def test_mismatched_rootset_rejected(self, zeta6):
        with pytest.raises(InvalidN):
            build_certificate(zeta6, solve_unity(8))

    def test_odd_zeta_rejected(self):
        with pytest.raises(InvalidN):
            build_certificate(construct_zeta(9), solve_unity(9))


class TestArcExclusion:
    @pytest.mark.parametrize("n", [6, 150, 298])
    def test_fixed_point_gap_within_derived_bound(self, n):
        # 2 (1 - T_n(x)) = |z^n - 1|^2 exactly, T_n from the three-term
        # recurrence on the integers P_k = T_k(x) * 2**(s k), x = p / 2**s
        frac = 128 + 64
        bound = 4 ** (n.bit_length() + 1)  # units of 2**-frac
        # full-width 128-bit points in (-1, 1), the ends, and one point
        # below 2**-64, where the conversion to 2**-frac units floors
        xs = [HPReal.from_ratio(2 * k - 1001, 1001) for k in range(1, 1001, 37)]
        xs += [HPReal.one(), -HPReal.one(), HPReal.zero(),
               HPReal.one() - HPReal.pow2(-20), HPReal.from_ratio(5, 3 * 2 ** 100)]
        for x in xs:
            xe = exact(x)
            s, p = xe.denominator.bit_length() - 1, xe.numerator
            prev, cur = 1, p
            for _ in range(n - 1):
                prev, cur = cur, 2 * p * cur - (prev << 2 * s)
            # exact gap * 2**(s n) = 2 (2**(s n) - P_n)
            exact_scaled = 2 * ((1 << s * n) - cur)
            got = _gap2_scaled(x, n, frac)
            err = abs((got << s * n) - (exact_scaled << frac))
            assert err <= bound << s * n, (n, x)

    def test_root_at_a_grid_point_fails(self):
        # the n = 8 grid passes 2**-9.10 from a 16th root of unity
        assert not _arc_exclusion_ok(construct_zeta(8), 16)

    @pytest.mark.parametrize("n", [6, 10])
    def test_roots_between_grid_points_are_missed(self, n):
        # known gap of the sampled check: the 2n-th roots on these arcs fall
        # between grid points (nearest 2**-8.59 at n = 6, 2**-7.42 at
        # n = 10), so the check passes although the arcs hold such roots
        assert _arc_exclusion_ok(construct_zeta(n), 2 * n)
