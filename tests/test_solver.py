import bisect
import cmath
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from unityroot import (HPComplex, HPReal, InvalidN, NoConvergence, RootSet,
                       ZeroTarget, roots_of, solve_binomial, solve_unity)
from unityroot import fixed, primitivity, solver
from unityroot.oracle import trig_root, zeta_matches_trig
from unityroot.solver import (_check_region, _csqrt, _sort_roots, MAX_N,
                              contract_tol, distinct_exp, newton_root,
                              unity_pair, unity_powers)
import aberth_oracle
from conftest import exact, fresh

# the solve indices of `verify --n N` for N in [5, 150], N = 0 or 1 (mod 4):
# N itself for even N, 2N for odd N
VERIFY_INDICES = sorted({n if n % 2 == 0 else 2 * n
                         for n in range(5, 151) if n % 4 in (0, 1)})


def closest_distance2(z, candidates):
    return min((z - w).abs2() for w in candidates)


def assert_documented_order(roots):
    """Upper half plane first, then the real band, then the lower half, by
    descending real part within each; the band here is relative, |z| 2**-32."""
    def key(z):
        band = abs(z).scale2(-32)
        return (0 if z.im > band else 2 if -z.im > band else 1, -z.re)

    keys = [key(z) for z in roots]
    assert keys == sorted(keys), [z.to_complex() for z in roots]


def as_set_match(got, want, tol2):
    assert len(got) == len(want)
    used = [False] * len(want)
    for z in got:
        hit = None
        for idx, w in enumerate(want):
            if not used[idx] and (z - w).abs2() <= tol2:
                hit = idx
                break
        assert hit is not None, f"unmatched root {z}"
        used[hit] = True


class TestUnity:
    def test_n_equals_one(self):
        rs = solve_unity(1)
        assert len(rs.roots) == 1
        assert rs.roots[0] == HPComplex.one()

    def test_n_equals_four_exact_axis_roots(self):
        rs = solve_unity(4)
        want = [HPComplex.i(), HPComplex.one(), HPComplex.from_int(-1),
                HPComplex(HPReal.zero(), -HPReal.one())]
        # deterministic order: upper first, then real band by descending Re
        for got, expect in zip(rs.roots, want):
            assert (got - expect).abs2() <= HPReal.pow2(-120)

    def test_n_equals_three_vs_quadratic_formula(self):
        # nontrivial roots solve z^2 + z + 1 = 0: (-1 +- sqrt(3) i)/2
        half = HPReal.from_ratio(1, 2)
        s3h = HPReal.from_int(3).sqrt() * half
        want = [HPComplex(-half, s3h), HPComplex.one(), HPComplex(-half, -s3h)]
        rs = solve_unity(3)
        tol2 = HPReal.pow2(-240)
        as_set_match(list(rs.roots), want, tol2)

    def test_residual_bound_meets_contract(self):
        for n in (2, 5, 12, 31, 64):
            rs = solve_unity(n)
            assert rs.residual_bound <= HPReal.pow2(-64)

    def test_roots_live_on_unit_circle(self):
        rs = solve_unity(17)
        one = HPReal.one()
        for z in rs.roots:
            assert abs(abs(z) - one) <= rs.residual_bound

    def test_conjugate_closure(self):
        rs = solve_unity(12)
        tol = rs.residual_bound * 2
        for z in rs.roots:
            assert closest_distance2(z.conj(), rs.roots) <= tol * tol

    def test_power_closure(self):
        rs = solve_unity(10)
        tol2 = HPReal.pow2(-100)
        for z in rs.roots:
            for k in (2, 3):
                assert closest_distance2(z.pow(k), rs.roots) <= tol2

    def test_determinism_bit_identical(self):
        for n in (7, 16):
            a = fresh(solve_unity, n)
            b = fresh(solve_unity, n)
            assert a.bit_identical(b)

    def test_cache_returns_same_object(self):
        assert solve_unity(9) is solve_unity(9)

    def test_matches_trig_oracle(self):
        tol2 = HPReal.pow2(-120)
        for n in (2, 3, 5, 8, 13, 16, 24, 33, 48, 64):
            rs = solve_unity(n)
            want = [trig_root(n, k).value for k in range(n)]
            as_set_match(list(rs.roots), want, tol2)

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            solve_unity(0)


class TestLargeN:
    @pytest.mark.parametrize("n", [307, 320, 640, 1024])
    def test_solve_unity_large_n(self, n):
        # large n, past the n = 1..300 sweeps of TestSymmetricUnity
        a = fresh(solve_unity, n)
        assert a.residual_bound <= HPReal.pow2(-64)
        assert a.bit_identical(fresh(solve_unity, n))

    def test_odd_zeta_at_doubled_index_622(self):
        assert zeta_matches_trig(311)

    def test_n_above_the_limit_is_invalid_n(self):
        # rejected before any work: no solve at the limit runs here
        c = HPComplex.from_int(2)
        for solve in (lambda: fresh(solve_unity, MAX_N + 1),
                      lambda: solve_binomial(c, MAX_N + 1),
                      lambda: newton_root(c, MAX_N + 1, 128)):
            with pytest.raises(InvalidN, match=str(MAX_N)):
                solve()

    def test_float_stage_settles_within_40_sweeps(self):
        # the Aberth oracle's seeds: the spiral g^k (|g| < 1) took up to 266
        # sweeps here, and over 40 at half of these indices
        slow = {}
        for n in VERIFY_INDICES + [2048]:
            _, sweeps = aberth_oracle.float_stage(n, 1 + 0j, 50 + 10 * n)
            if sweeps > 40:
                slow[n] = sweeps
        assert not slow


def same_floats(a, b):
    """Bit-identical lists of machine complex numbers, signed zeros included."""
    def bits(zs):
        return [(z.real.hex(), z.imag.hex()) for z in zs]

    return bits(a) == bits(b)


class TestSquareRootLifting:
    TARGETS = [1 + 0j, complex(-7, 3), complex(0.6, -1.3), complex(-2.0 ** 200, 0)]

    def test_even_float_roots_are_square_roots_of_half_index(self):
        # the Aberth oracle's lifting
        wrong = []
        for n in (2, 4, 6, 12, 20, 64, 96, 1024):
            for c in self.TARGETS:
                z, used = aberth_oracle.float_stage(n, c, 50 + 10 * n)
                y, half_used = aberth_oracle.float_stage(n // 2, c, 50 + 10 * n)
                w = [_csqrt(v) for v in y]
                if not (same_floats(z, w + [-v for v in w])
                        and used == half_used):
                    wrong.append((n, c))
        assert not wrong

    def test_sqrt_is_the_principal_root(self):
        ys = [1 + 0j, -1 + 0j, 1j, -1j, 4 + 0j, -4 + 0j, complex(-7, 3),
              complex(-7, -3), complex(3, -1e-12), complex(-1e-9, 2),
              complex(2, -0.0), complex(-2, 0.0), complex(-2, -0.0),
              complex(0.3, 0.9)]
        for y in ys:
            got, want = _csqrt(y), cmath.sqrt(y)
            assert got.real >= 0
            assert abs(got - want) <= 2.0 ** -51 * abs(want), (y, got, want)

    def test_sqrt_does_not_overflow_at_the_top_of_the_range(self):
        # (|y| + |Re y|)/2 formed directly overflows to inf here
        ys = [complex(1.7e308, 0), complex(1.2e308, 1.2e308),
              complex(-1.7e308, 1e300), complex(-1e308, -1.5e308)]
        for y in ys:
            got, want = _csqrt(y), cmath.sqrt(y)
            assert abs(got - want) <= 2.0 ** -51 * abs(want), (y, got, want)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_binomial_at_the_top_of_the_reduced_range(self, n):
        # |c / 2**(kn)| just below 2**(n - 1/2), the top of its range (the
        # last target of each group lies just past it, so k rises by one)
        failed = []
        for num, den in ((7, 5), (1414, 1000)):
            for shift in (0, 3 * n):
                re = HPReal.from_ratio(num, den).scale2(n - 1 + shift)
                for c in (HPComplex(re, HPReal.zero()),
                          HPComplex(re * HPReal.from_ratio(3, 5),
                                    re * HPReal.from_ratio(4, 5)),
                          HPComplex(-re, re.scale2(-3))):
                    rs = solve_binomial(c, n)
                    if len(rs.roots) != n or rs.residual_bound > abs(c).scale2(-64):
                        failed.append((num, shift, c.to_complex()))
        assert not failed


class TestBlockedRepulsion:
    """The Aberth oracle's repulsion sums, formed in blocks of rows."""

    @staticmethod
    def full_matrix(z, idx):
        rows = np.arange(len(idx))
        inv = z[idx][:, None] - z[None, :]
        inv[rows, idx] = 1.0
        np.divide(1.0, inv, out=inv)
        inv[rows, idx] = 0.0
        return inv.sum(axis=1)

    @pytest.mark.parametrize("c", [1 + 0j, complex(-7, 3)])
    def test_blocks_match_the_full_matrix(self, monkeypatch, c):
        n = 771  # odd, more than three blocks of rows
        assert n > 3 * aberth_oracle._BLOCK
        got = aberth_oracle.float_stage(n, c, 50 + 10 * n)
        monkeypatch.setattr(aberth_oracle, "_repulsion", self.full_matrix)
        want = aberth_oracle.float_stage(n, c, 50 + 10 * n)
        assert got[1] == want[1] and same_floats(got[0], want[0])


class TestCollapsedPair:
    """The oracle's sorted binary64 screen, _collapsed_pair, against every
    pair."""

    @staticmethod
    def every_pair(zs, n, precision):
        # all pairs closer than the floor, in index order; binary64 only
        # skips pairs more than twice the floor apart
        e = distinct_exp(n, precision)
        thr2 = HPReal.pow2(-e, precision) * HPReal.pow2(-e, precision)
        approx = np.array([z.to_complex() for z in zs])
        found = []
        for u in range(len(zs) - 1):
            close = np.nonzero(np.abs(approx[u + 1:] - approx[u]) < 2.0 ** (1 - e))[0]
            found += [(u, v) for v in (u + 1 + close).tolist()
                      if (zs[u] - zs[v]).abs2() <= thr2]
        return found

    @staticmethod
    def planted_set(rng, size, precision, inside):
        """size points: random ones with |re|, |im| in [1/4, 1), conjugate
        pairs, and columns of points sharing one real part, so the screen
        must look past the next neighbour, all at least four floors apart;
        then a twin of one point at the floor plus one ulp and, if `inside`,
        a twin of another at the floor minus one ulp, each along re or im."""
        floor = HPReal.pow2(-distinct_exp(size, precision), precision)

        def coord():
            x = HPReal.from_ratio(3 * rng.getrandbits(precision) + (1 << precision),
                                  1 << (precision + 2), precision)
            return -x if rng.random() < 0.5 else x

        count = size - 1 - inside
        zs = []
        while len(zs) < count + 8:
            z, kind = HPComplex(coord(), coord()), rng.random()
            if kind < 0.2:
                zs += [z, z.conj()]
            elif kind < 0.3:
                zs += [HPComplex(z.re, coord()) for _ in range(rng.randint(2, 6))]
            else:
                zs.append(z)
        approx = np.array([z.to_complex() for z in zs])
        far = 4 * floor.to_float()
        zs = [z for u, z in enumerate(zs)
              if not (np.abs(approx[:u] - approx[u]) < far).any()]
        assert len(zs) >= count
        zs = zs[:count]

        def twin(z, sign):
            # a step toward zero keeps the difference exact
            along_re = rng.random() < 0.5
            x = z.re if along_re else z.im
            step = floor + sign * HPReal.pow2(x.exponent, precision)
            step = -step if x.sign > 0 else step
            return HPComplex(z.re + step, z.im) if along_re else HPComplex(z.re, z.im + step)

        a, b = rng.sample(zs, 2)
        zs.append(twin(a, 1))
        if inside:
            zs.append(twin(b, -1))
        rng.shuffle(zs)
        return zs

    @pytest.mark.parametrize("precision", [32, 128])
    def test_same_pair_as_every_pair_scan(self, precision):
        rng = random.Random(precision)
        seen = {True: 0, False: 0}
        for size in (4, 5, 17, 64, 255, 1024, 2048):
            for inside in (False, True):
                zs = self.planted_set(rng, size, precision, inside)
                found = self.every_pair(zs, size, precision)
                assert len(found) <= 1
                got = aberth_oracle._collapsed_pair(zs, size, precision)
                assert found == ([] if got is None else [got]), (size, inside)
                seen[bool(found)] += 1
        # the ulp below the floor collapses and the ulp above it does not
        assert seen == {True: 7, False: 7}


class TestBinomial:
    def test_sixteen_fourth_roots(self):
        rs = solve_binomial(HPComplex.from_int(16), 4)
        want = [HPComplex.from_int(2), HPComplex.from_int(0, 2),
                HPComplex.from_int(-2), HPComplex.from_int(0, -2)]
        as_set_match(list(rs.roots), want, HPReal.pow2(-120))

    def test_unity_target_agrees_with_solve_unity(self):
        # A = 1 exactly for c = 1, so each root is the one rounding of its
        # ideal pair T_i, solve_unity's root bit for bit; the bounds differ
        # only by the principal root's term rho, which carries
        # fixed.power_error(1, n), 2 (n - 1) units of 2**-192
        for n in (3, 6, 12, 100):
            a = solve_binomial(HPComplex.one(), n)
            b = fresh(solve_unity, n)
            assert [bits(z) for z in a.roots] == [bits(z) for z in b.roots]
            gap = abs(exact(a.residual_bound) - exact(b.residual_bound))
            assert gap <= exact(b.residual_bound) / 2 ** 60

    def test_square_roots_of_i(self):
        # (x+iy)^2 = i by hand: x = y = sqrt(1/2)
        rs = solve_binomial(HPComplex.i(), 2)
        s = HPReal.from_ratio(1, 2).sqrt()
        want = [HPComplex(s, s), HPComplex(-s, -s)]
        as_set_match(list(rs.roots), want, HPReal.pow2(-240))

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTarget):
            solve_binomial(HPComplex.zero(), 3)
        # the check is newton_root's; it reached _csqrt(0) and divided by 0
        with pytest.raises(ZeroTarget):
            newton_root(HPComplex.zero(), 3, 128)

    def test_large_and_tiny_targets_reduce_cleanly(self):
        c = HPComplex(HPReal.pow2(100), HPReal.zero())
        rs = solve_binomial(c, 4)
        # each root has |z| = 2**25
        want_mod = HPReal.pow2(25)
        for z in rs.roots:
            assert abs(abs(z) - want_mod) <= HPReal.pow2(-70)
        tiny = HPComplex(HPReal.pow2(-90), HPReal.zero())
        rs2 = solve_binomial(tiny, 3)
        want = HPReal.pow2(-30)
        for z in rs2.roots:
            assert abs(abs(z) - want) <= HPReal.pow2(-100)

    @pytest.mark.parametrize("exp, n", [(-600, 5), (-2000, 7)])
    def test_tiny_targets_meet_relative_floor_and_target(self, exp, n):
        # roots of modulus 2**(exp/n) sit far below an absolute 2**-32 floor
        c = HPComplex(HPReal.pow2(exp), HPReal.zero())
        rs = solve_binomial(c, n)
        assert len(rs.roots) == n
        assert rs.residual_bound <= HPReal.pow2(exp - 64)

    def test_newton_stop_is_relative_to_root_scale(self):
        # an absolute stop (scaled by |c|, not by the roots' |c|^(1/n)) ended
        # these solves after one sweep or never
        failed = []
        for precision in (128, 256, 512):
            for exp in (-1000, -200, 0, 200, 1000):
                c = HPComplex(HPReal.from_int(3, precision).scale2(exp),
                              HPReal.pow2(exp, precision))
                for n in (3, 7):
                    try:
                        bound = solve_binomial(c, n, precision).residual_bound
                    except NoConvergence as err:
                        failed.append((precision, exp, n, str(err)))
                        continue
                    if bound > abs(c).scale2(-(precision // 2)):
                        failed.append((precision, exp, n, bound.to_float()))
        assert not failed

    def test_roots_of_is_solve_binomial(self):
        # one solver for z**n = c under both public names
        assert roots_of is solve_binomial
        assert primitivity.roots_of is solver.solve_binomial

    def test_tiny_target_keeps_documented_order(self):
        # an absolute real-axis band put every root of modulus 2**-120 in it
        rs = solve_binomial(HPComplex(HPReal.pow2(-600), HPReal.zero()), 5)
        assert_documented_order(rs.roots)
        assert [z.im.sign for z in rs.roots[:2] + rs.roots[3:]] == [1, 1, -1, -1]


def test_root_values_are_exact_dyadics_of_reported_precision():
    rs = solve_unity(6)
    for z in rs.roots:
        assert z.re.precision == 128
        # exact() never raises: the values really are dyadic rationals
        exact(z.re), exact(z.im)


def residual_within(z, c, n, bound):
    """|z**n - c| <= bound, decided exactly: every dyadic is held as an
    integer times a power of two."""
    def ints(w):
        e = min((v.exponent for v in (w.re, w.im) if v.sign), default=0)
        return ([v.sign * v.mantissa << (v.exponent - e) if v.sign else 0
                 for v in (w.re, w.im)], e)

    (x, y), ez = ints(z)
    (cr, ci), ec = ints(c)
    pr, pi, k = 1, 0, n
    while k:
        if k & 1:
            pr, pi = pr * x - pi * y, pr * y + pi * x
        k >>= 1
        if k:
            x, y = x * x - y * y, 2 * x * y
    e = min(n * ez, ec)
    dr = (pr << (n * ez - e)) - (cr << (ec - e))
    di = (pi << (n * ez - e)) - (ci << (ec - e))
    # dr**2 + di**2 times 4**e against bound**2 = m**2 times 4**eb
    m, eb = bound.mantissa, bound.exponent
    return (dr * dr + di * di) << max(2 * (e - eb), 0) <= m * m << max(2 * (eb - e), 0)


BOUND_TARGETS = [
    HPComplex.one(), HPComplex.from_int(-7, 3),
    HPComplex(HPReal.from_int(3).scale2(1000), HPReal.pow2(1000)),
    HPComplex(HPReal.from_int(3).scale2(-1000), HPReal.pow2(-1000)),
]


class TestFixedPointStage:
    @pytest.mark.parametrize("solve", [solve_binomial, solve_unity],
                             ids=["solve_binomial", "solve_unity"])
    def test_residual_bound_is_an_upper_bound(self, solve):
        # the bound of the returned, rounded roots, against their exact
        # residual; solve_unity bounds one root per orbit and covers the rest
        short = []
        for c in BOUND_TARGETS[:1] if solve is solve_unity else BOUND_TARGETS:
            for n in range(1, 65):
                rs = solve(n) if solve is solve_unity else solve(c, n)
                if not all(residual_within(z, c, n, rs.residual_bound)
                           for z in rs.roots):
                    short.append((c.to_complex(), n))
        assert not short

    def test_solve_unity_32_at_33_bits(self):
        # every z**32 rounds to 1 at 33 bits; the rounded | |z| - 1 | was
        # compared with a bound of 0 and 8 correct roots were rejected
        rs = fresh(solve_unity, 32, 33)
        assert len(rs.roots) == 32
        assert rs.residual_bound <= HPReal.pow2(-16, 33)

    def test_solve_unity_2048_at_32_bits(self):
        # the spacing 2 sin(pi/2048) lies below the old floor 2**-8
        rs = fresh(solve_unity, 2048, 32)
        assert len(rs.roots) == 2048

    def test_collapsed_pair_is_still_rejected(self):
        # the oracle's screen, which its Aberth root sets still need
        rs = fresh(solve_unity, 12)
        screen = aberth_oracle._collapsed_pair
        doubled = list(rs.roots[:11]) + [rs.roots[3]]
        assert screen(doubled, 12, 128) == (3, 11)
        near = rs.roots[3] + HPComplex(HPReal.pow2(-40), HPReal.zero())
        assert screen(list(rs.roots[:11]) + [near], 12, 128) == (3, 11)

    def test_newton_root_takes_a_bounded_number_of_kernel_steps(self, monkeypatch):
        # seeded from the linear phase the loop took ~0.7 n steps (94 at n = 128)
        calls = []
        step = fixed.newton_step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(fixed, "newton_step", counted)
        worst = 0
        for c in BOUND_TARGETS + [HPComplex.i(), HPComplex.from_int(-1)]:
            for n in (1, 2, 3, 5, 7, 64, 100, 128, 255, 256, 511, 777, 1023, 1024):
                calls.clear()
                newton_root(c, n, 128)
                worst = max(worst, len(calls))
        assert worst <= 4

    @pytest.mark.parametrize("re,im,e", [
        (-8, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (-7, 3, 1000),
        (3, -4, -1000), (-5, 0, 1000), (0, -3, -1000)])
    def test_newton_root_is_the_principal_root(self, re, im, e):
        # against mpmath's principal root at 400 bits, relative to |c|**(1/n)
        def mp(x):
            return mpmath.mpf((x.sign * x.mantissa, x.exponent))

        worst = 0
        with mpmath.workprec(400):
            for precision in (32, 128, 200):
                c = HPComplex(HPReal.from_int(re, precision).scale2(e),
                              HPReal.from_int(im, precision).scale2(e))
                for n in (1, 2, 3, 5, 12, 64, 255):
                    z = newton_root(c, n, precision)
                    want = mpmath.root(mpmath.mpc(mp(c.re), mp(c.im)), n)
                    err = abs(mpmath.mpc(mp(z.re), mp(z.im)) - want) / abs(want)
                    worst = max(worst, err * 2 ** precision)
        assert worst <= 4, float(worst)

    def test_fresh_solves_are_bit_identical(self):
        for n, precision in ((100, 128), (33, 33), (64, 256)):
            assert fresh(solve_unity, n, precision).bit_identical(
                fresh(solve_unity, n, precision))
        c = HPComplex.from_int(-7, 3)
        assert solve_binomial(c, 20).bit_identical(solve_binomial(c, 20))


# the structural residual bounds against the per-root oracle: n = 1..300
# and the sizes where the margins are tightest
STRUCTURE_NS = list(range(1, 301)) + [1024, 4095, 4096, 16383, 16384, 32767,
                                      32768]


class TestStructuralBound:
    @pytest.mark.parametrize("precision", [32, 53, 128])
    def test_within_the_per_root_oracle(self, precision):
        # the bound of every root set is at most the oracle's, one ladder
        # per root, times 2**(1/16) for solve_unity (over its representatives,
        # whose residuals cover the flips) and times 2 for solve_binomial
        loose = []
        two = HPComplex.from_int(2, 0, precision)
        for n in STRUCTURE_NS:
            unity = solve_unity(n, precision)
            reps = list(unity.roots[:representatives(n)])
            got = exact(unity.residual_bound)
            want = exact(aberth_oracle.per_root_bound(reps, unity.target, n,
                                                      precision))
            if got ** 16 > 2 * want ** 16:
                loose.append(("unity", n, float(got / want)))
            rs = solve_binomial(two, n, precision)
            got = exact(rs.residual_bound)
            want = exact(aberth_oracle.per_root_bound(list(rs.roots), two, n,
                                                      precision))
            if got > 2 * want:
                loose.append(("binomial", n, float(got / want)))
        assert not loose

    @pytest.mark.parametrize("precision", [32, 53, 128])
    def test_covers_the_exact_residuals(self, precision):
        # a deterministic sample of the roots of each set, against their
        # exact residuals: eight roots of each set up to n = 300, two above.
        # An exact power of degree 32768 at 128 bits takes seconds, so past
        # n = 4096 only 32 bits runs, with c = 2 (-7 + 3i at n = 32767 and
        # 32768 is test_one_rounding_per_rotated_root_at_32_bits)
        short = []
        for n in STRUCTURE_NS:
            if n > 4096 and precision > 32:
                continue
            c = HPComplex.from_int(*((-7, 3) if n <= 4096 else (2, 0)),
                                   precision)
            step = max(1, n // (8 if n <= 300 else 2))
            for rs in (solve_unity(n, precision),
                       solve_binomial(c, n, precision)):
                if not all(residual_within(z, rs.target, n, rs.residual_bound)
                           for z in rs.roots[::step]):
                    short.append((n, rs.is_unity))
        assert not short

    def test_tight_margins_at_32_bits(self):
        # little room: roots_of(2, 32768, 32) has the bound
        # 2**-16.20 against its target 2**-14, roots_of(2, 16383, 32)
        # 2**-17.08 and solve_unity(32768, 32) 2**-17.51 against 2**-15; a
        # bound above target raises NoConvergence
        two = HPComplex.from_int(2, 0, 32)
        for rs, target in ((roots_of(two, 32768, 32), Fraction(1, 2 ** 14)),
                           (roots_of(two, 16383, 32), Fraction(1, 2 ** 14)),
                           (fresh(solve_unity, 32768, 32), Fraction(1, 2 ** 15))):
            assert exact(rs.residual_bound) < target

    @pytest.mark.parametrize("n", [32767, 32768])
    def test_one_rounding_per_rotated_root_at_32_bits(self, n):
        # a root rotated as the rounded product of the rounded principal
        # root and a rounded root of unity carried three roundings, and
        # these sets raised NoConvergence with the bound 2**-12.54 against
        # the target 2**-13; one rounding of the exact pair A T reads
        # 2**-14.08 (n = 32767) and 2**-14.09 (n = 32768)
        c = HPComplex.from_int(-7, 3, 32)
        rs = roots_of(c, n, 32)
        assert exact(rs.residual_bound) <= Fraction(1, 2 ** 13)
        assert all(residual_within(z, c, n, rs.residual_bound)
                   for z in rs.roots[::n // 2])


def bits(z):
    return tuple((v.sign, v.mantissa, v.exponent) for v in (z.re, z.im))


def representatives(n):
    """ceil(n/4) - 1 for even n, (n - 1)/2 for odd n: the roots off the axes
    in the open first quadrant (even n) or upper half plane (odd n)."""
    return (n + 3) // 4 - 1 if n % 2 == 0 else (n - 1) // 2


class TestSymmetricUnity:
    CASES = [(n, 128) for n in range(1, 301)] + [(1024, 32)]

    def test_closed_under_exact_sign_flips(self):
        open_ = []
        for n, precision in self.CASES:
            rs = solve_unity(n, precision)
            roots = {bits(z) for z in rs.roots}
            flips = [HPComplex.conj] + (
                [HPComplex.__neg__, lambda z: -z.conj()] if n % 2 == 0 else [])
            for z in rs.roots:
                if any(bits(f(z)) not in roots for f in flips):
                    open_.append((n, precision, z.to_complex()))
        assert not open_

    def test_axis_roots_are_exact(self):
        # the axis roots carried one kernel unit, 2**-(p + 64), of dust
        wrong = []
        for n, precision in self.CASES:
            one, zero = HPReal.one(precision), HPReal.zero(precision)
            want = {bits(HPComplex(one, zero))}
            if n % 2 == 0:
                want.add(bits(HPComplex(-one, zero)))
            if n % 4 == 0:
                want |= {bits(HPComplex(zero, one)), bits(HPComplex(zero, -one))}
            band = HPReal.pow2(-32, precision)
            axis = {bits(z) for z in solve_unity(n, precision).roots
                    if abs(z.re) <= band or abs(z.im) <= band}
            if axis != want:
                wrong.append((n, precision))
        assert not wrong

    def test_layout_is_the_sorted_order(self):
        moved = []
        for n, precision in self.CASES:
            roots = solve_unity(n, precision).roots
            want = _sort_roots(list(roots), contract_tol(precision))
            if [bits(z) for z in roots] != [bits(z) for z in want]:
                moved.append((n, precision))
        assert not moved

    def test_representative_screen(self):
        # the check reads the representatives' integer pairs
        frac, flat = fixed.lift(
            [v for z in solve_unity(12).roots[:representatives(12)]
             for v in (z.re, z.im)], fixed.frac_bits(128))
        reps = list(zip(flat[::2], flat[1::2]))
        _check_region(reps, frac, 12, 128)
        quarter = 1 << (frac - distinct_exp(12, 128) - 2)
        bad = [
            # within floor/2 of the real axis: its conjugate is within floor
            [(reps[0][0], quarter), reps[1]],
            # within floor/2 of the imaginary axis: so is -conj(z)
            [reps[0], (quarter, reps[1][1])],
        ]
        for wrong in bad:
            with pytest.raises(NoConvergence,
                               match="not in the open first quadrant"):
                _check_region(wrong, frac, 12, 128)

    @pytest.mark.parametrize("n,j,region", [
        (12, 1, "open first quadrant"), (7, 1, "upper half plane")])
    def test_region_failure_names_the_representative(self, monkeypatch, n, j,
                                                     region):
        # the conjugate seed puts every power in the lower half plane, a
        # unit or more from the other roots: nothing collapsed
        monkeypatch.setattr(solver, "_unity_seed", trig_seed(-1))
        with pytest.raises(NoConvergence,
                           match=rf"omega\*\*{j} of z\*\*{n} = 1 is not in "
                                 rf"the {region}"):
            fresh(solve_unity, n)

    def test_one_ladder_of_degree_n_per_solve(self, monkeypatch):
        # the residual bounds come from the sets' structure: one ladder
        # fixed.power(., n) and one fixed.power_error per solve, where a
        # bound root by root took one of each per representative or root;
        # Newton runs on omega alone, a few steps from the binary64 seed
        refines, steps, ladders, bounds = [], [], [], []
        refine, step = fixed.newton, fixed.newton_step
        ladder, error = fixed.power, fixed.power_error

        def counted_refine(*args):
            refines.append(args[2])
            return refine(*args)

        def counted_step(*args):
            steps.append(args[2])
            return step(*args)

        def counted_ladder(*args):
            ladders.append(args[1])
            return ladder(*args)

        def counted_error(*args):
            bounds.append(args[1])
            return error(*args)

        monkeypatch.setattr(fixed, "newton", counted_refine)
        monkeypatch.setattr(fixed, "newton_step", counted_step)
        monkeypatch.setattr(fixed, "power", counted_ladder)
        monkeypatch.setattr(fixed, "power_error", counted_error)
        over = []
        for n, precision in [(n, 128) for n in (1, 2, 3, 4, 6, 8, 10, 12, 75,
                                                100, 148, 256, 298, 1024)] + [
                (1024, 32), (1024, 64), (4095, 128)]:
            for counts in (refines, steps, ladders, bounds):
                counts.clear()
            fresh(solve_unity, n, precision)
            one = min(representatives(n), 1)
            if (refines != [n] * one or len(steps) > 3 * len(refines)
                    or ladders.count(n) != one or bounds != [n] * one):
                over.append(("unity", n, precision, list(refines), len(steps),
                             ladders.count(n), len(bounds)))
            # with the unity set cached: the principal root's ladder alone
            for counts in (refines, ladders, bounds):
                counts.clear()
            solve_binomial(HPComplex.from_int(2, 0, precision), n, precision)
            if refines != [n] or ladders.count(n) != 1 or bounds != [n]:
                over.append(("binomial", n, precision, list(refines),
                             ladders.count(n), len(bounds)))
        assert not over

    @pytest.mark.parametrize("precision", [32, 53, 128])
    def test_region_margin_exceeds_the_distance_bound(self, precision):
        # the premise of _unity_layout's proof, in exact rationals: at the
        # residual target B of a unity set, 2**(1 - precision // 2), a
        # representative lies within ((1 + B/(1 - B)) pi/2 + 1/(1 - B)) B/n
        # < d = 4B/n of an exact root, d < floor/2, and consecutive exact
        # roots are pinned by 4d + 2**(2 - precision) < 4/n
        B = exact(contract_tol(precision).scale2(1))
        assert (1 + B / (1 - B)) * Fraction(22, 7) / 2 + 1 / (1 - B) < 4
        step = Fraction(1, 2 ** (precision - 2))
        short = [n for n in range(1, MAX_N + 1)
                 if not (4 * B / n < Fraction(1, 2 ** (distinct_exp(n, precision) + 1))
                         and 16 * B / n + step < Fraction(4, n))]
        assert not short

    @pytest.mark.parametrize("ns,precision", [
        ([32768], 32), ([32767], 32), ([4096], 53), (range(1, 301), 128)])
    def test_unity_sets_are_distinct_without_a_screen(self, ns, precision):
        # the conclusion of _unity_layout's proof, on real output: the
        # oracle's screen finds no pair closer than the distinctness floor
        close = [n for n in ns if aberth_oracle._collapsed_pair(
            list(solve_unity(n, precision).roots), n, precision) is not None]
        assert not close

    def test_rotated_set_is_distinct_without_a_screen(self):
        # |2|**(1/n) lies in [1, 2), so the roots' scale 2**k is 2**0
        rs = solve_binomial(HPComplex.from_int(2, 32), 16383, 32)
        assert aberth_oracle._collapsed_pair(list(rs.roots), 16383, 32) is None

    @pytest.mark.parametrize("precision", [32, 53, 128])
    def test_modulus_is_within_the_residual_bound(self, precision):
        # | |z|**2 - 1 | <= |z**n - 1| for n >= 2 (derived in solve_unity's
        # docstring), so the residual bound keeps every representative,
        # and with it every flip, on the unit circle; decided exactly
        off = []
        for n in list(range(1, 301)) + [4096, 32768]:
            rs = solve_unity(n, precision)
            bound = exact(rs.residual_bound)
            for z in rs.roots[:representatives(n)]:
                if abs(exact(z.re) ** 2 + exact(z.im) ** 2 - 1) > bound:
                    off.append((n, z.to_complex()))
        assert not off


def trig_seed(k):
    """A seed at e^(2 pi i k/n), k = 1 the right one, from the oracle."""
    return lambda n: trig_root(n, k % n).value.to_complex()


class TestUnityPowers:
    def test_entry_k_is_the_kth_power_of_entry_one(self):
        # against the oracle's e^(2 pi i k/n) and the product of two entries
        off = []
        tol2 = HPReal.pow2(-240)
        for n in list(range(1, 41)) + [64, 99, 100]:
            pw = unity_powers(solve_unity(n))
            if len(pw) != n:
                off.append((n, len(pw)))
                continue
            for k, w in enumerate(pw):
                if ((w - trig_root(n, k).value).abs2() > tol2
                        or (w - pw[1 % n] * pw[k - 1]).abs2() > tol2):
                    off.append((n, k))
        assert not off

    def test_entries_are_the_root_set(self):
        for n in (1, 2, 3, 4, 12, 15):
            rs = solve_unity(n)
            assert sorted(map(bits, unity_powers(rs))) == sorted(map(bits, rs.roots))

    def test_rejects_truncated_and_non_unity_sets(self):
        rs = solve_unity(12)
        with pytest.raises(InvalidN):
            unity_powers(RootSet(n=12, target=rs.target, roots=rs.roots[:5],
                                 residual_bound=rs.residual_bound,
                                 precision=128))
        with pytest.raises(InvalidN):
            unity_powers(solve_binomial(HPComplex.from_int(2), 3))


def pair_bits(entry, precision):
    frac, (x, y) = entry
    return bits(HPComplex(fixed.to_hpreal(x, frac, precision),
                          fixed.to_hpreal(y, frac, precision)))


class TestUnityPair:
    @pytest.mark.parametrize("precision", [32, 53, 128])
    def test_every_entry_is_the_unity_powers_entry(self, precision):
        # read from the representatives of a fresh set, then from the same
        # set once its roots are built, against the table bit for bit;
        # every j includes 0, n/4, n/2 and 3n/4
        off = []
        for n in list(range(1, 65)) + [4095, 4096]:
            rs = fresh(solve_unity, n, precision)
            held = [pair_bits(unity_pair(rs, j), precision) for j in range(n)]
            table = [bits(z) for z in unity_powers(rs)]
            read = [pair_bits(unity_pair(rs, j), precision) for j in range(n)]
            if not held == read == table:
                off.append(n)
        assert not off

    def test_index_is_taken_mod_n(self):
        rs = fresh(solve_unity, 12)
        for j in (-13, -1, 12, 25):
            assert unity_pair(rs, j) == unity_pair(rs, j % 12)

    def test_held_set_builds_its_roots_once_on_read(self, monkeypatch):
        calls = []
        layout = solver._unity_roots
        monkeypatch.setattr(solver, "_unity_roots",
                            lambda *args: calls.append(args) or layout(*args))
        rs = fresh(solve_unity, 12)
        unity_pair(rs, 5)
        assert not calls
        assert rs.roots is rs.roots and len(calls) == 1

    def test_rejects_truncated_and_non_unity_sets(self):
        rs = solve_unity(12)
        with pytest.raises(InvalidN):
            unity_pair(replace(rs, roots=rs.roots[:5]), 1)
        with pytest.raises(InvalidN):
            unity_pair(solve_binomial(HPComplex.from_int(2), 3), 1)


class TestDirectUnity:
    def test_seed_is_close_to_the_primitive_root(self):
        far = [n for n in range(1, 4097)
               if abs(solver._unity_seed(n) - trig_seed(1)(n)) > 2.0 ** -40]
        assert not far

    def test_seed_is_built_from_square_roots_of_minus_one(self):
        # 1/2 = 0.1b selects r_1 = -1 alone, 1/4 = 0.01b r_2 = i and
        # 1/8 = 0.001b r_3 = sqrt(i); 1/1 = 1 selects none
        assert solver._unity_seed(1) == 1
        assert solver._unity_seed(2) == -1
        assert solver._unity_seed(4) == 1j
        assert abs(solver._unity_seed(8) - (1 + 1j) * 0.5 ** 0.5) <= 2.0 ** -52

    @pytest.mark.parametrize("seed", [trig_seed(3), trig_seed(-1),
                                      lambda n: 1 + 0j, trig_seed(2)],
                             ids=["omega^3", "conjugate", "one", "omega^2"])
    def test_wrong_seed_is_no_convergence(self, monkeypatch, seed):
        # Newton from a wrong seed lands on another root omega^j, whose
        # powers leave the screened region; none may come back as a RootSet
        monkeypatch.setattr(solver, "_unity_seed", seed)
        for n in (3, 5, 7, 12, 30, 100, 101, 1024):
            with pytest.raises(NoConvergence):
                fresh(solve_unity, n)

    @pytest.mark.parametrize("ns,precision", [
        (list(range(1, 201)) + [255, 256, 298, 1024], 128), ([1024], 32)])
    def test_matches_solve_binomial_as_sets(self, ns, precision):
        # against the Aberth oracle's solve_binomial, an independent solver
        off = []
        for n in ns:
            unity = solve_unity(n, precision)
            other = aberth_oracle.solve_binomial(HPComplex.one(precision), n,
                                                 precision)
            tol = unity.residual_bound + other.residual_bound
            if not sets_match(unity.roots, other.roots, tol * tol):
                off.append(n)
        assert not off


def sets_match(got, want, tol2):
    """True iff got and want pair up one-to-one within |z - w|**2 <= tol2;
    candidates are found in binary64 by real part, then measured exactly."""
    if len(got) != len(want):
        return False
    approx = sorted((w.to_complex().real, idx) for idx, w in enumerate(want))
    keys = [re for re, _ in approx]
    used = set()
    for z in got:
        x = z.to_complex().real
        lo = bisect.bisect_left(keys, x - 1e-9)
        hit = next((idx for _, idx in approx[lo:bisect.bisect_right(keys, x + 1e-9)]
                    if idx not in used and (z - want[idx]).abs2() <= tol2), None)
        if hit is None:
            return False
        used.add(hit)
    return True
