import math
import random

import pytest

from unityroot import (HPComplex, HPReal, InvalidM, InvalidN,
                       InvalidPrecision, NoConvergence, NotARoot, NotPrime,
                       UnityRootError, ZeroTarget, construct_zeta,
                       gcd_primitivity, is_prime, multiplicative_order,
                       prime_shortcut, roots_of, solve_binomial, solve_unity,
                       zeta_power)
from unityroot import fixed
from unityroot.primitivity import _divisors
import aberth_oracle


def real_nth_root(x: HPReal, n: int) -> HPReal:
    """Independent positive n-th root oracle: Newton on t**n = x over reals."""
    assert x.sign > 0
    t = (HPReal.one(x.precision) + x) / 2
    for _ in range(400):
        tp = t
        for _ in range(n - 1):
            tp = tp * t  # plain repeated multiplication, no shared helpers
        t_next = t - (tp - x) / (tp / t * n)
        if abs(t_next - t) <= HPReal.pow2(-100, x.precision):
            return t_next
        t = t_next
    raise AssertionError("oracle root did not converge")


class TestOrder:
    def test_one_has_order_one(self):
        for n in (1, 5, 12):
            rep = multiplicative_order(HPComplex.one(), n)
            assert rep.order == 1
            assert rep.is_primitive == (n == 1)

    def test_zeta6_squared_has_order_three(self):
        w = construct_zeta(6).as_complex()
        rep = multiplicative_order(w * w, 6)
        assert rep.order == 3 and not rep.is_primitive

    def test_zeta6_is_primitive(self):
        rep = multiplicative_order(construct_zeta(6).as_complex(), 6)
        assert rep.order == 6 and rep.is_primitive

    def test_order_divides_n(self):
        w = construct_zeta(12).as_complex()
        for m in range(1, 13):
            rep = multiplicative_order(w.pow(m), 12)
            assert 12 % rep.order == 0

    def test_non_root_rejected(self):
        z = HPComplex(HPReal.from_ratio(1, 2), HPReal.from_ratio(1, 2))
        with pytest.raises(NotARoot):
            multiplicative_order(z, 6)

    def test_large_w_is_rejected_without_forming_its_power(self, monkeypatch):
        # |w^n - 1| >= 2**(1000 n - 1) is decided from |w| alone: the power
        # itself would hold 4 million bits
        calls = []
        monkeypatch.setattr(fixed, "power", lambda *args: calls.append(args))
        with pytest.raises(NotARoot):
            multiplicative_order(HPComplex(HPReal.pow2(1000), HPReal.zero()), 4096)
        assert not calls

    def test_index_below_one_is_invalid_n(self):
        # n <= 0 has no divisor to scan; it fell through to NotARoot
        for n in (0, -1, -4):
            with pytest.raises(InvalidN):
                multiplicative_order(HPComplex.one(), n)

    def test_divisors_pair_each_small_divisor_with_its_cofactor(self):
        # d <= sqrt(n) paired with n // d, against the scan of 1..n
        for n in range(1, 3001):
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n

    def test_order_at_a_large_index(self):
        # the scan of 1..n took about a minute at n = 10**9
        assert multiplicative_order(HPComplex.one(), 10 ** 9).order == 1

    def test_order_of_every_power_of_zeta_to_64(self):
        # the order is n / gcd(m, n) for every m, and w^n is formed once
        wrong = []
        for n in range(1, 65):
            for m in range(1, n + 1):
                rep = multiplicative_order(zeta_power(n, m), n)
                want = n // math.gcd(m, n)
                if (rep.order, rep.is_primitive) != (want, want == n):
                    wrong.append((n, m, rep.order))
        assert not wrong

    def test_w_to_the_n_is_formed_once(self, monkeypatch):
        # _unity_test has checked w^n = 1; the divisor scan stops before n
        degrees = []
        power = fixed.power
        monkeypatch.setattr(fixed, "power", lambda a, d, frac: degrees.append(d)
                            or power(a, d, frac))
        for n in (6, 7, 12, 64):
            w = zeta_power(n, 1)
            degrees.clear()
            assert multiplicative_order(w, n).order == n
            assert degrees.count(n) == 1, (n, degrees)

    def test_wide_tolerance_still_forms_the_powers(self):
        # |3 - 1| = 2 and |3^2 - 1| = 8: within tol 8, and 8 > tol 7
        three = HPComplex.from_int(3)
        assert multiplicative_order(three, 2, HPReal.from_int(8)).order == 1
        with pytest.raises(NotARoot):
            multiplicative_order(three, 2, HPReal.from_int(7))


class TestGcdCriterion:
    def test_examples(self):
        assert gcd_primitivity(5, 6)
        assert not gcd_primitivity(2, 6)
        assert gcd_primitivity(1, 1)

    def test_agrees_with_order_small(self):
        for n in (4, 6, 9, 10):
            w = construct_zeta(n).as_complex()
            for m in range(1, n + 1):
                got = multiplicative_order(w.pow(m), n).is_primitive
                assert got == gcd_primitivity(m, n), (n, m)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gcd_primitivity(0, 5)
        with pytest.raises(ValueError):
            gcd_primitivity(7, 5)


class TestPrimeShortcut:
    def test_all_nontrivial_roots_primitive_for_prime(self):
        rs = solve_unity(7)
        one = HPComplex.one()
        for w in rs.roots:
            if (w - one).abs2() > HPReal.pow2(-100):
                assert prime_shortcut(w, 7)
                assert multiplicative_order(w, 7).order == 7

    def test_one_is_excluded(self):
        assert not prime_shortcut(HPComplex.one(), 7)

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            prime_shortcut(HPComplex.one(), 6)

    def test_is_prime_basics(self):
        primes = [n for n in range(1, 32) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestRootsOf:
    def test_unity_target_matches_solver(self):
        got = roots_of(HPComplex.one(), 6)
        want = solve_unity(6)
        tol2 = HPReal.pow2(-120)
        for z in got.roots:
            assert min((z - w).abs2() for w in want.roots) <= tol2

    def test_sixteen_fourth(self):
        got = roots_of(HPComplex.from_int(16), 4)
        expected = [HPComplex.from_int(2), HPComplex.from_int(0, 2),
                    HPComplex.from_int(-2), HPComplex.from_int(0, -2)]
        tol2 = HPReal.pow2(-120)
        for e in expected:
            assert min((z - e).abs2() for z in got.roots) <= tol2

    def test_cube_roots_of_minus_eight(self):
        # hand expansion: (1 + sqrt(3) i)^3 = -8, plus the real root -2
        got = roots_of(HPComplex.from_int(-8), 3)
        s3 = HPReal.from_int(3).sqrt()
        expected = [HPComplex.from_int(-2),
                    HPComplex(HPReal.one(), s3),
                    HPComplex(HPReal.one(), -s3)]
        tol2 = HPReal.pow2(-230)
        for e in expected:
            assert min((z - e).abs2() for z in got.roots) <= tol2

    def test_negative_real_even_degree(self):
        # the principal root of a negative real lies off the rootless real axis
        for n in (2, 4, 6, 12):
            got = roots_of(HPComplex.from_int(-8), n)
            assert len(got.roots) == n
            assert got.residual_bound <= HPReal.pow2(-60)

    def test_moduli_match_independent_nth_root(self):
        c = HPComplex.from_int(3, 4)
        for n in (2, 3, 6):
            got = roots_of(c, n)
            want = real_nth_root(abs(c), n)
            tol = HPReal.pow2(-60)
            for z in got.roots:
                assert abs(abs(z) - want) <= tol

    def test_matches_solve_binomial_sampled(self):
        # against the Aberth oracle's solve_binomial, an independent solver
        c = HPComplex.from_int(0, 1)
        for n in (3, 12):
            a = roots_of(c, n)
            b = aberth_oracle.solve_binomial(c, n)
            tol2 = HPReal.pow2(-120)
            used = [False] * n
            for z in a.roots:
                hit = next(i for i, w in enumerate(b.roots)
                           if not used[i] and (z - w).abs2() <= tol2)
                used[hit] = True
            assert all(used)

    def test_zero_target(self):
        with pytest.raises(ZeroTarget):
            roots_of(HPComplex.zero(), 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_invalid_n_as_solve_binomial(self, n):
        with pytest.raises(InvalidN):
            solve_binomial(HPComplex.from_int(2), n)

    def test_deterministic(self):
        c = HPComplex.from_int(3, 4)
        a = roots_of(c, 5)
        b = roots_of(c, 5)
        for x, y in zip(a.roots, b.roots):
            assert x == y

    def test_wide_magnitudes_seeded(self):
        # the old seed at radius (1 + |c|)/2 ran out of Newton steps over
        # most of this grid, (-7 + 3i) * 2**10 at n = 16 among them
        rng = random.Random(5)
        cases = [(-7, 3, 10, 16, 128), (1, 0, 2000, 7, 128),
                 (1, 0, -2000, 7, 128), (-1, 0, 0, 128, 32), (0, -1, 0, 1, 512)]
        for _ in range(40):
            cases.append((rng.getrandbits(40) - (1 << 39), rng.getrandbits(40) - (1 << 39),
                          rng.randint(-2040, 1960), rng.randint(1, 128),
                          rng.randint(32, 512)))
        failed = []
        for re, im, exp, n, precision in cases:
            c = HPComplex(HPReal.from_int(re, precision).scale2(exp),
                          HPReal.from_int(im, precision).scale2(exp))
            try:
                rs = roots_of(c, n, precision)
            except NoConvergence as err:
                failed.append((re, im, exp, n, precision, str(err)))
                continue
            if len(rs.roots) != n or rs.residual_bound > abs(c).scale2(-(precision // 2)):
                failed.append((re, im, exp, n, precision, rs.residual_bound.to_float()))
        assert not failed

    def test_low_precision_n1024_meets_the_solver_bound(self):
        # twiddles built from repeated rounded products drifted j times an
        # ulp, so this raised "residual bound 9.63e+08 above target"
        c = HPComplex(HPReal.from_int(-7, 32).scale2(40),
                      HPReal.from_int(3, 32).scale2(40))
        got = roots_of(c, 1024, precision=32)
        want = aberth_oracle.solve_binomial(c, 1024, precision=32)
        assert got.residual_bound <= want.residual_bound.scale2(2)

    def test_matches_solve_binomial_at_n1024_and_1024_bits(self):
        c = HPComplex(HPReal.from_int(-7, 1024), HPReal.from_int(3, 1024))
        a = roots_of(c, 1024, 1024)
        b = aberth_oracle.solve_binomial(c, 1024, 1024)
        # both sets come out in the solver's documented order
        tol2 = HPReal.pow2(-1000, 1024)
        assert all((z - w).abs2() <= tol2 for z, w in zip(a.roots, b.roots))


@pytest.mark.parametrize("call,error", [
    (lambda: solve_unity(8, 16), InvalidPrecision),
    (lambda: construct_zeta(6, 16), InvalidPrecision),
    (lambda: roots_of(HPComplex.from_int(2), 3, 16), InvalidPrecision),
    (lambda: gcd_primitivity(0, 6), InvalidM),
], ids=["solve_unity", "construct_zeta", "roots_of", "gcd_primitivity"])
def test_bad_arguments_raise_package_errors(call, error):
    # a plain ValueError escaped each public call
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, UnityRootError)
