from dataclasses import replace
from fractions import Fraction

import pytest

from unityroot import (CertificateFailure, DomainViolation, HPComplex, HPReal,
                       InvalidN, StepLimit, Zeta, advance_re,
                       advance_re_derivative, build_certificate,
                       construct_zeta, descent_sequence, fixed, retreat_re,
                       solve_unity)
from unityroot.descent import _arc_exclusion_ok, _reconstruction_ok
from conftest import exact, sample_reals

TOL_120 = Fraction(1, 2 ** 120)


def scaled_powers(zeta, xs, m):
    """(frac, X, P) as the certificate forms them for any xs: frac =
    precision + 64, raised until a, b and every x_k convert exactly; X the
    integers x_k * 2**frac; P = [P_0, ..., P_m], the fixed-point powers of
    w = a + ib."""
    frac, (a, b, *scaled) = fixed.lift((zeta.a, zeta.b, *xs),
                                       fixed.frac_bits(zeta.precision))
    return frac, scaled, fixed.powers((a, b), m, frac)


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

    def test_step_budget_is_n(self):
        # zeta(32) takes 16 steps to reach -1; declared as n = 8 it still
        # lies in the domain after 8
        z32 = construct_zeta(32)
        slow = Zeta(n=8, a=z32.a, b=z32.b, r=z32.r, precision=z32.precision)
        with pytest.raises(StepLimit, match="within 8 steps"):
            descent_sequence(slow)


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

    def test_correct_zeta_at_1024_and_32_bits(self):
        # the sampled grid rejected this correct zeta with ['arc_exclusion']
        cert = build_certificate(construct_zeta(1024, 32), solve_unity(1024, 32))
        assert cert.checks.all_passed and cert.p == 512

    def test_correct_zeta_at_2048_and_32_bits(self):
        # the last step, 1 - cos(2 pi/2048) ~ 2**-17.6, lies inside the
        # clamping tolerance 2**-16: x_1024 = -1 did not exit and the next
        # step raised NonDescent
        zeta = construct_zeta(2048, 32)
        xs, p = descent_sequence(zeta)
        assert p == 1024 and xs[-1] == -HPReal.one(32)
        cert = build_certificate(zeta, solve_unity(2048, 32))
        assert cert.checks.all_passed

    def test_correct_zeta_at_4096_and_32_bits(self):
        # the last gap x_2047 - x_2048 ~ 2**-19.70 lay below the enclosures
        # E_2047 + E_2048 ~ 2**-19.42 that charged the whole drift
        # k |w - omega| to the real part
        cert = build_certificate(construct_zeta(4096, 32), solve_unity(4096, 32))
        assert cert.checks.all_passed and cert.p == 2048

    def test_mismatched_rootset_rejected(self, zeta6):
        with pytest.raises(InvalidN):
            build_certificate(zeta6, solve_unity(8))

    def test_odd_zeta_rejected(self):
        with pytest.raises(InvalidN):
            build_certificate(construct_zeta(9), solve_unity(9))


class TestArcExclusion:
    """The alpha-test proof of ``_arc_exclusion_ok`` on the shared powers."""

    @staticmethod
    def proves(zeta, n, xs):
        return _arc_exclusion_ok(n, *scaled_powers(zeta, xs, n // 2))

    @staticmethod
    def own_sequence(zeta, n):
        # Re(w^k) for k = 0..n/2, the descent a w with that many steps reports
        w = zeta.as_complex()
        return [w.pow(k).re for k in range(n // 2 + 1)]

    @pytest.mark.parametrize("n", [6, 150, 298])
    def test_fixed_point_powers_within_derived_bound(self, n):
        # |P_k - w^k| <= sqrt(2) k u W**(k-1) < 2 k u for |w| within 2**-100
        # of 1, checked against the exact powers of the integer pair
        zeta = construct_zeta(n)
        frac, _, pw = scaled_powers(zeta, [], n // 2)
        assert pw[0] == (1 << frac, 0)
        ar, ai = pw[1]
        er, ei = 1, 0  # exact w^k, scaled by 2**(k frac)
        for k, (pr, pi) in enumerate(pw[1:], start=1):
            er, ei = er * ar - ei * ai, er * ai + ei * ar
            shift = (k - 1) * frac
            dr, di = (pr << shift) - er, (pi << shift) - ei
            assert dr * dr + di * di <= (2 * k) ** 2 << 2 * shift, (n, k)

    def test_proof_accepts_every_even_n_to_300(self):
        for n in range(6, 301, 2):
            zeta = construct_zeta(n)
            xs, _ = descent_sequence(zeta)
            assert self.proves(zeta, n, xs), n

    @pytest.mark.parametrize("n,precision", [(1024, 128), (64, 32),
                                             (256, 32), (1024, 32)])
    def test_proof_accepts_large_n_and_low_precision(self, n, precision):
        zeta = construct_zeta(n, precision)
        xs, _ = descent_sequence(zeta)
        assert self.proves(zeta, n, xs)

    @pytest.mark.parametrize("j", [2, 3])
    def test_other_root_rejected(self, j):
        # w = zeta(10)^j: of order 5 for j = 2, and for j = 3 a primitive
        # 10th root that is not the one next to 1; either way its real parts
        # turn back before step 5, and zeta(10)'s own descent is far from them
        zeta = construct_zeta(10)
        w = zeta.as_complex().pow(j)
        fake = Zeta(n=10, a=w.re, b=w.im, r=HPReal.zero(), precision=128)
        assert not self.proves(fake, 10, self.own_sequence(fake, 10))
        assert not self.proves(fake, 10, descent_sequence(zeta)[0])

    def test_conjugate_rejected(self):
        # conj(zeta) has zeta's real parts but lies below the axis
        zeta = construct_zeta(12)
        xs, _ = descent_sequence(zeta)
        conj = Zeta(n=12, a=zeta.a, b=-zeta.b, r=zeta.r, precision=128)
        assert not self.proves(conj, 12, xs)

    def test_root_off_by_a_rotation_rejected(self):
        # w = zeta(6) zeta(600) descends from 1 to near -1 in three steps with
        # wide gaps, but |w^6 - 1| ~ 2**-4 puts alpha far above the bound
        w = construct_zeta(6).as_complex() * construct_zeta(600).as_complex()
        fake = Zeta(n=6, a=w.re, b=w.im, r=HPReal.zero(), precision=128)
        assert not self.proves(fake, 6, self.own_sequence(fake, 6))

    def test_enclosures_grow_with_beta(self):
        # w = zeta(256) turned by 2**-16 radians: B u ~ 2**-15.6, the alpha
        # bound B (n - 1) u ~ 2**-7.6 passes and w's own real parts still
        # descend, but at the last gap (~2**-11.9) the tangential terms
        # 2kB |Im P_k| u (~2**-12.9) and the remainders 12 k^2 B^2 u^2
        # (~2**-12.6) of E_127 + E_128 exceed it; either alone does not
        eps = HPReal.pow2(-16)
        one = HPReal.one()
        s = (one + eps * eps).sqrt()
        w = construct_zeta(256).as_complex() * HPComplex(one / s, eps / s)
        fake = Zeta(n=256, a=w.re, b=w.im, r=HPReal.zero(), precision=128)
        xs = self.own_sequence(fake, 256)
        assert all(lo < hi for hi, lo in zip(xs, xs[1:]))
        assert not self.proves(fake, 256, xs)

    def test_tangential_drift_is_weighted_by_the_imaginary_part(self):
        # w = zeta(64) turned by 2**-13 radians passes the alpha-test, and its
        # exact root omega is e^(2 pi i/64): the drift k (w - omega) is
        # tangential, and near k = p, where Im P_k is small, it barely moves
        # the real parts.  The proof accepts it; charging the whole drift,
        # k (2 + 4B) u, to the real parts would reject it
        eps = HPReal.pow2(-13)
        one = HPReal.one()
        s = (one + eps * eps).sqrt()
        w = construct_zeta(64).as_complex() * HPComplex(one / s, eps / s)
        fake = Zeta(n=64, a=w.re, b=w.im, r=HPReal.zero(), precision=128)
        assert self.proves(fake, 64, self.own_sequence(fake, 64))

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_doubled_index_rejected(self, n):
        # zeta(n) checked as a 2n-th root: its arcs hold the 2n-th roots that
        # the sampled grid missed (2**-8.59 at n = 6, 2**-7.42 at n = 10) or
        # hit only at a grid point (n = 8)
        zeta = construct_zeta(n)
        assert not self.proves(zeta, 2 * n, self.own_sequence(zeta, 2 * n))
        xs, _ = descent_sequence(zeta)
        assert not self.proves(zeta, 2 * n, xs)

    def test_malformed_xs_rejected(self):
        zeta = construct_zeta(12)
        xs, _ = descent_sequence(zeta)
        assert self.proves(zeta, 12, xs)
        assert not self.proves(zeta, 12, xs[:-1])
        assert not self.proves(zeta, 12, [])
        assert not self.proves(zeta, 12, xs + [-HPReal.one()])
        assert not self.proves(zeta, 12, xs[:3] + xs[2:-1])

    def test_reconstruction_rejects_moved_x(self):
        zeta = construct_zeta(12)
        rootset = solve_unity(12)
        xs, p = descent_sequence(zeta)
        frac, scaled, pw = scaled_powers(zeta, xs, p)
        tol = HPReal.pow2(-64)
        assert _reconstruction_ok(p, frac, scaled, pw, rootset, tol)
        scaled[3] += 2 << (frac - 64)
        assert not _reconstruction_ok(p, frac, scaled, pw, rootset, tol)

    def test_merge_rejects_moved_root(self):
        zeta = construct_zeta(12)
        rootset = solve_unity(12)
        roots = list(rootset.roots)
        nudge = HPComplex(HPReal.pow2(-63), HPReal.zero())
        roots[4] = roots[4] + nudge  # twice the 2**-64 tolerance
        with pytest.raises(CertificateFailure) as info:
            build_certificate(zeta, replace(rootset, roots=tuple(roots)))
        assert info.value.failed == ["reconstruction_matches"]

    def test_merge_reads_a_root_finer_than_its_unit(self):
        # Re i moved to 2**-100, a 128-bit value whose last bit lies below
        # the certificate's unit 2**-192, is compared at its own unit, and
        # within the 2**-64 tolerance it passes
        zeta = construct_zeta(12)
        rootset = solve_unity(12)
        roots = list(rootset.roots)
        i = next(k for k, z in enumerate(roots) if z == HPComplex.i())
        roots[i] = HPComplex(HPReal.pow2(-100), roots[i].im)
        moved = replace(rootset, roots=tuple(roots))
        assert build_certificate(zeta, moved).checks.all_passed

    def test_merge_rejects_truncated_root_set(self):
        # the first five roots of twelve matched the first five candidates
        zeta = construct_zeta(12)
        rootset = solve_unity(12)
        with pytest.raises(CertificateFailure) as info:
            build_certificate(zeta, replace(rootset, roots=rootset.roots[:5]))
        assert info.value.failed == ["reconstruction_matches"]

    def test_merge_rejects_swapped_roots(self):
        zeta = construct_zeta(12)
        rootset = solve_unity(12)
        roots = list(rootset.roots)
        roots[1], roots[2] = roots[2], roots[1]
        with pytest.raises(CertificateFailure) as info:
            build_certificate(zeta, replace(rootset, roots=tuple(roots)))
        assert info.value.failed == ["reconstruction_matches"]
