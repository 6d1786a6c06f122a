"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Tolerances are pinned as stated, except two bounds that no 128-bit
program can meet and that are derived in their tests' docstrings instead:
criterion 3 bounds each round trip by 4 * 2^-128 * (1 + kappa), kappa the
outer map's slope at the intermediate point, in place of a flat 2^-120;
criterion 11 uses a floor of 2^-9, in place of 2^-8, which the grid point
next to Re(zeta) crosses even in exact arithmetic, and also holds each
sampled |z^n - 1|^2 to within 10 * n * |z^n - 1| * 2^-128 of its exact
value 2 * (1 - T_n(x)).  CHANGES.md records the change and what the old
bounds checked that the new ones do not.
"""

import math
import time
from fractions import Fraction

from unityroot import (HPComplex, HPReal, advance_re, advance_re_derivative,
                       build_certificate, construct_zeta, dft_forward,
                       dft_inverse, gcd_primitivity, is_prime,
                       multiplicative_order, prime_shortcut, retreat_re,
                       roots_of, solve_unity, trig_root)
import aberth_oracle
from conftest import exact, fresh, sample_complexes, sample_reals


def report(num: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {state} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def log2_frac(x: Fraction) -> float:
    if x == 0:
        return float("-inf")
    return math.log2(float(x)) if x > 0 else float("nan")


def test_criterion_01_trig_agreement():
    """|construct_zeta(n) - e^(2 pi i / n)| < 2^-60 for every n in 1..64."""
    t0 = time.perf_counter()
    tol2 = Fraction(1, 2 ** 120)  # squared distance against 2^-60
    worst = Fraction(0)
    for n in range(1, 65):
        z = construct_zeta(n).as_complex()
        ref = trig_root(n, 1).value
        d2 = exact((z - ref).abs2())
        worst = max(worst, d2)
    elapsed = time.perf_counter() - t0
    ok = worst < tol2 and elapsed < 20.0
    report(1, ok, f"max distance 2^{log2_frac(worst) / 2:.1f} "
                  f"(tol 2^-60), {elapsed:.1f}s (budget 20s)")


def test_criterion_02_certificates_even_n():
    """All six certificate checks for even n in 6..64; p = n/2 exactly and
    |x_p + 1| <= 2^-64."""
    t0 = time.perf_counter()
    tol = HPReal.pow2(-64)
    checked = 0
    for n in range(6, 65, 2):
        cert = build_certificate(construct_zeta(n), solve_unity(n))
        assert cert.checks.all_passed
        assert cert.p == n // 2
        assert abs(cert.xs[-1] + HPReal.one()) <= tol
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 30 and elapsed < 30.0
    report(2, ok, f"{checked} certificates, all checks true, "
                  f"{elapsed:.1f}s (budget 30s)")


def test_criterion_03_bijection_round_trip():
    """1000 quasi-random points per n in {6, 8, 12}: at 128-bit precision
    both compositions return within K * 2^-128 * (1 + kappa) of the input,
    K = 4, where kappa is the outer map's derivative at the exact
    intermediate point.

    Why the bound scales with kappa: the intermediate value must be rounded
    to 128 bits, and the outer map multiplies that rounding by its slope,
    which grows without limit at the domain corners (kappa reaches 2^10.1
    on the n = 6 samples).  No flat tolerance can hold there: even a
    correctly rounded zeta with correctly rounded maps misses 2^-120 at
    n = 6 (2^-119.4).

    Derivation of K, to first order in u = 2^-128.  Write the round trip as
    outer(inner(t)) - t = kappa*d_in + d_out + D:

    - d_in, d_out: each map a*t +- b*sqrt((1-t)*(1+t)) is evaluated with
      seven correctly rounded operations.  a*t, b*sqrt(.) and the result lie
      below 1 in magnitude, so those three roundings cost at most u/2 each.
      The square root rounds once more (b*u/2 after scaling by b), and its
      argument carries a relative error of at most 2u (one of 1-t, 1+t is
      exact when |t| >= 1/2) or 3u (|t| < 1/2), which the root halves:
      at most 3b*u/2.  So |d| <= (3/2 + 2b)*u.
    - D: zeta satisfies a^2 + b^2 = 1 + eps only up to rounding, so the exact
      maps are inverses only to first order.  Put the two points of the
      round trip at angles phi and phi + theta (theta the angle of zeta)
      and the intermediate one at omega, which is phi or phi + theta.
      Then D = eps*sin(2*phi + theta)/(2*sin(omega)), while
      1 + kappa = (sin(phi) + sin(phi + theta))/sin(omega).  As
      phi + theta/2 lies in [theta/2, pi - theta/2],
      |sin(2*phi + theta)| <= sin(phi) + sin(phi + theta), hence
      |D| <= |eps|*(1 + kappa)/2.

    Together |error| <= (3/2 + 2b + |eps|/(2u)) * u * (1 + kappa).  For
    n >= 6, b <= sqrt(3)/2; a zeta whose a and b are each within half an
    ulp has |eps| <= (a + b)*u <= sqrt(2)*u.  So K = 3/2 + sqrt(3) +
    sqrt(2)/2 = 3.94, rounded up to 4.  At kappa ~ 1 the bound is 2^-125;
    it is looser than a flat 2^-120 only where kappa > 63.
    """
    u = Fraction(1, 2 ** 128)
    k_const = 4
    worst, worst_at = Fraction(0), None
    worst_ratio, ratio_at = 0.0, None
    for n in (6, 8, 12):
        zeta = construct_zeta(n)
        a = exact(zeta.a)
        fa, fb = float(a), float(exact(zeta.b))
        # (samples, inner, outer, sign of the inner map's sqrt term)
        cases = ((sample_reals(1000, Fraction(-1), a, seed=5),
                  retreat_re, advance_re, 1, "advance(retreat(y))"),
                 (sample_reals(1000, -a, Fraction(1), seed=9),
                  advance_re, retreat_re, -1, "retreat(advance(x))"))
        for samples, inner, outer, sign, label in cases:
            for v in samples:
                t = float(exact(v))
                mid = fa * t + sign * fb * math.sqrt((1 - t) * (1 + t))
                kappa = fa + sign * fb * mid / math.sqrt((1 - mid) * (1 + mid))
                err = abs(exact(outer(inner(v, zeta), zeta)) - exact(v))
                ratio = float(err / u) / (1 + kappa)
                if err > worst:
                    worst, worst_at = err, (n, label)
                if ratio > worst_ratio:
                    worst_ratio, ratio_at = ratio, (n, label, round(kappa, 1))
    report(3, worst_ratio <= k_const,
           f"max error 2^{log2_frac(worst):.1f} at {worst_at}; "
           f"max error / (2^-128 (1 + kappa)) = {worst_ratio:.2f} at "
           f"{ratio_at} (K = {k_const})")


def test_criterion_04_derivative_vs_finite_difference():
    """256-bit central differences with step 2^-40 agree with the closed-form
    derivative to relative error < 2^-30 on 100 interior points, n in {6, 10}."""
    prec = 256
    h = HPReal.pow2(-40, prec)
    two_h = h * 2
    rel_tol = Fraction(1, 2 ** 30)
    worst = Fraction(0)
    for n in (6, 10):
        zeta = construct_zeta(n, precision=prec)
        lo = -exact(zeta.a) + Fraction(1, 2 ** 20)
        hi = Fraction(99, 100)
        for x in sample_reals(100, lo, hi, precision=prec, seed=21):
            d = advance_re_derivative(x, zeta)
            fd = (advance_re(x + h, zeta) - advance_re(x - h, zeta)) / two_h
            rel = abs(exact(d) - exact(fd)) / abs(exact(d))
            worst = max(worst, rel)
    report(4, worst < rel_tol,
           f"max relative error 2^{log2_frac(worst):.1f} (tol 2^-30)")


def test_criterion_05_gcd_equals_order_criterion():
    """For all n <= 40 and all m in 1..n: order-primitivity of zeta^m equals
    gcd(m, n) = 1, zero exceptions."""
    t0 = time.perf_counter()
    cases = 0
    mismatches = []
    for n in range(1, 41):
        w = construct_zeta(n).as_complex()
        for m in range(1, n + 1):
            got = multiplicative_order(w.pow(m), n).is_primitive
            want = gcd_primitivity(m, n)
            if got != want:
                mismatches.append((n, m))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 820 and not mismatches and elapsed < 10.0
    report(5, ok, f"{cases} cases, {len(mismatches)} exceptions, "
                  f"{elapsed:.1f}s (budget 10s)")


def test_criterion_06_prime_shortcut_agreement():
    """For prime n <= 31 the shortcut agrees with the order computation on
    every nontrivial root."""
    one = HPComplex.one()
    agree = True
    checked = 0
    for n in range(2, 32):
        if not is_prime(n):
            continue
        rs = solve_unity(n)
        for w in rs.roots:
            if (w - one).abs2() <= HPReal.pow2(-100):
                continue
            quick = prime_shortcut(w, n)
            full = multiplicative_order(w, n).is_primitive
            agree = agree and quick and full
            checked += 1
    report(6, agree, f"{checked} nontrivial roots across primes <= 31 agree")


def test_criterion_07_rotation_matches_simultaneous_solver():
    """roots_of(c, n) matches solve_binomial(c, n) as sets within 2^-60 for
    the sample targets; every set pairwise separated by > 2^-32."""
    match_tol2 = Fraction(1, 2 ** 120)
    sep_tol2 = Fraction(1, 2 ** 64)
    targets = [HPComplex.one(), HPComplex.i(), HPComplex.from_int(-8),
               HPComplex.from_int(16), HPComplex.from_int(3, 4)]
    worst_match = Fraction(0)
    min_sep = None
    for c in targets:
        for n in (2, 3, 4, 6, 12):
            a = roots_of(c, n)
            b = aberth_oracle.solve_binomial(c, n)
            used = [False] * n
            for z in a.roots:
                best, hit = None, None
                for idx, w in enumerate(b.roots):
                    d = exact((z - w).abs2())
                    if not used[idx] and (best is None or d < best):
                        best, hit = d, idx
                used[hit] = True
                worst_match = max(worst_match, best)
            for rs in (a, b):
                for i in range(n):
                    for j in range(i + 1, n):
                        d = exact((rs.roots[i] - rs.roots[j]).abs2())
                        if min_sep is None or d < min_sep:
                            min_sep = d
    ok = worst_match < match_tol2 and (min_sep is None or min_sep > sep_tol2)
    report(7, ok, f"max matched distance 2^{log2_frac(worst_match) / 2:.1f} "
                  f"(tol 2^-60), min separation "
                  f"2^{log2_frac(min_sep) / 2:.1f} (floor 2^-32)")


def test_criterion_08_equal_arc_spacing():
    """| |zeta^(k+1) - zeta^k| - |zeta - 1| | < 2^-100 for all k, n <= 64."""
    tol = Fraction(1, 2 ** 100)
    worst = Fraction(0)
    for n in range(1, 65):
        zeta = construct_zeta(n)
        w = zeta.as_complex()
        r = exact(zeta.r)
        prev = HPComplex.one()
        for k in range(n):
            nxt = w.pow(k + 1)
            step = exact(abs(nxt - prev))
            worst = max(worst, abs(step - r))
            prev = nxt
    report(8, worst < tol, f"max spacing deviation 2^{log2_frac(worst):.1f} "
                           f"(tol 2^-100)")


def test_criterion_09_solver_robustness_and_determinism():
    """solve_unity converges for every n <= 256 at 128 bits with residual
    <= 2^-64 within the sweep cap; two runs are bit-identical."""
    t0 = time.perf_counter()
    bound = HPReal.pow2(-64)
    worst = HPReal.zero()
    deterministic = True
    for n in range(1, 257):
        first = fresh(solve_unity, n)
        second = fresh(solve_unity, n)
        deterministic = deterministic and first.bit_identical(second)
        if first.residual_bound > worst:
            worst = first.residual_bound
        assert first.residual_bound <= bound
    elapsed = time.perf_counter() - t0
    ok = deterministic
    report(9, ok, f"256 sizes solved twice, max residual "
                  f"2^{log2_frac(exact(worst)):.1f} (tol 2^-64), "
                  f"bit-identical={deterministic}, {elapsed:.0f}s")


def test_criterion_10_dft_round_trip_and_parseval():
    """Round-trip and Parseval errors < 2^-60 for n <= 64, 10 vectors each."""
    tol = Fraction(1, 2 ** 60)
    tol2 = tol * tol
    worst_rt2 = Fraction(0)
    worst_pv = Fraction(0)
    for n in range(1, 65):
        for v in range(10):
            xs = sample_complexes(n, seed=n * 10 + v)
            Xs = dft_forward(xs)
            back = dft_inverse(Xs)
            for got, want in zip(back, xs):
                worst_rt2 = max(worst_rt2, exact((got - want).abs2()))
            te = sum(exact(z.abs2()) for z in xs)
            fe = sum(exact(z.abs2()) for z in Xs)
            worst_pv = max(worst_pv, abs(te - fe / n))
    ok = worst_rt2 < tol2 and worst_pv < tol
    report(10, ok, f"max round-trip 2^{log2_frac(worst_rt2) / 2:.1f}, "
                   f"max Parseval gap 2^{log2_frac(worst_pv):.1f} (tol 2^-60)")


def test_criterion_11_sampled_arc_exclusion():
    """No point of the 1000-point grids strictly inside (a, 1 - 2^-20) and
    (-1, -a) may bring |z^n - 1| down to 2^-9, for n in {6, 8, 10, 12}, and
    at every grid point the 128-bit |z^n - 1|^2 must lie within
    10 * n * |z^n - 1| * 2^-128 of its exact value.

    Derivation of the floor.  The open arcs hold no n-th root, so |z^n - 1|
    is smallest at the grid points next to the roots that bound them.  The
    first point above a lies one step, Delta = (1 - 2^-20 - a)/1001, from
    zeta, i.e. an angle dtheta >= Delta/b away (the arc's slope in x only
    steepens towards 1).  There |z^n - 1| = 2*sin(n*dtheta/2), which to
    first order is n*(1 - a)/(1001*b) = n*tan(pi/n)/1001: 2^-8.17 to
    2^-8.28 for the n here, and about pi/1001 = 2^-8.32 or more for every
    n >= 3, as tan(t) > t.  The grid on (-1, -a) has the same step and
    meets the root at -a in the same way; next to 1 and -1 the angle moves
    like sqrt(2*Delta), far more.  So a floor of 2^-8 is crossed even in
    exact arithmetic.  2^-9 sits at least 1.6x below the grid's root-free
    minimum, while a root that falls on a grid point gives |z^n - 1| of
    about 2^-119.  The floor only catches roots near a grid point: a root
    between two grid points can stay above it.

    Derivation of the accuracy bound.  For z = x + i*sqrt(1 - x^2) on the
    unit circle, |z^n - 1|^2 = 2 - 2*Re(z^n) = 2*(1 - T_n(x)), T_n the
    Chebyshev polynomial; the test computes it exactly from the dyadic x by
    T_(k+1) = 2x*T_k - T_(k-1), with no square root.  Every HPReal operation
    rounds correctly, with relative error at most u = 2^-128.  To first
    order in u, with w = z^n - 1 (the neglected terms lie below 2^-240):

    - height: one of 1 - x, 1 + x is exact (|x| >= a >= 1/2), the other and
      their product round once each, and the root halves that error and
      rounds once more, so the 128-bit z is z*(1 + rho) with |rho| <= 2u,
      which moves z^n by at most 2n*u;
    - pow: each component of a complex product, such as x1*x2 - y1*y2,
      rounds three times, an error of at most 2u*(|x1*x2| + |y1*y2|); the
      two components together give at most 2*sqrt(2)*u*|z1*z2|.  Unfolded into a tree,
      binary exponentiation makes n - 1 products of values of modulus ~1,
      so these add at most 2*sqrt(2)*(n - 1)*u;
    - subtracting 1 rounds the real part once, at most u (|Re| < 2);
    - abs2 rounds three times, at most 2u*|w|^2 <= 4u*|w|.

    Together |computed - exact| <= 2*|w|*(2n + 2*sqrt(2)*(n - 1) + 1)*u
    + 4u*|w| = (4n + 4*sqrt(2)*(n - 1) + 6)*|w|*u <= 10*n*|w|*u.
    """
    floor = Fraction(1, 2 ** 9)
    floor2 = floor * floor
    u = Fraction(1, 2 ** 128)
    k_const = 10
    one = HPReal.one()
    unity = HPComplex.one()
    min_seen = None
    min_at = None
    violations = 0
    inaccurate = 0
    worst_ratio, ratio_at = 0.0, None
    for n in (6, 8, 10, 12):
        zeta = construct_zeta(n)
        intervals = ((zeta.a, one - HPReal.pow2(-20)), (-one, -zeta.a))
        for lo, hi in intervals:
            step = (hi - lo) / 1001
            x = lo
            for _ in range(1000):
                x = x + step
                height = ((one - x) * (one + x)).sqrt()
                z = HPComplex(x, height)
                m2 = exact((z.pow(n) - unity).abs2())
                if min_seen is None or m2 < min_seen:
                    min_seen, min_at = m2, (n, x.to_float())
                if m2 <= floor2:
                    violations += 1
                xe = exact(x)
                t_prev, t_cur = Fraction(1), xe
                for _ in range(n - 1):
                    t_prev, t_cur = t_cur, 2 * xe * t_cur - t_prev
                ref = 2 * (1 - t_cur)
                # |m2 - ref| <= K * n * |w| * u, squared to stay exact
                if (m2 - ref) ** 2 > (k_const * n * u) ** 2 * ref:
                    inaccurate += 1
                ratio = float(abs(m2 - ref) / (n * u)) / math.sqrt(ref)
                if ratio > worst_ratio:
                    worst_ratio, ratio_at = ratio, (n, x.to_float())
    margin = math.sqrt(min_seen / floor2)
    report(11, violations == 0 and inaccurate == 0,
           f"{violations} grid points at or below 2^-9; minimum "
           f"|z^n - 1| = 2^{log2_frac(min_seen) / 2:.2f} at n={min_at[0]}, "
           f"x={min_at[1]:.6f} (the grid point adjacent to Re(zeta)), "
           f"{margin:.2f}x the floor; {inaccurate} grid points off the "
           f"exact 2(1 - T_n(x)) by more than K n |z^n - 1| 2^-128, worst "
           f"{worst_ratio:.2f} at n={ratio_at[0]}, x={ratio_at[1]:.6f} "
           f"(K = {k_const})")
