"""Fixed-point complex kernel on scaled integer pairs.

A real x is held as the integer X = x * 2**frac, a complex value as the pair
(re, im) of such integers.  Products are exact integer products truncated
once by a floor shift, so every operation here is a field operation or an
integer square root on integers.  :func:`newton` is the package's one
Newton loop: every root the solver returns is refined by it, omega of the
unity solve included, whose :func:`powers` are every n-th root of unity the
package uses.  The solver's residual bounds and the certificate's descent
(:func:`rotate_re`) and powers of zeta run on these helpers too, and round
back to :class:`HPReal` once, at the end; every upward bound on a power
runs on one ladder, :func:`power_up`.

Working at frac = precision + GUARD_BITS fraction bits leaves 64 bits below
the last bit a result keeps, so a value whose error is a few units of
2**-frac rounds correctly unless it lies within 2**-60 ulp of a tie
(Ziv 1991).  Error analysis: Brent & Zimmermann, *Modern Computer
Arithmetic*, ch. 1-3.
"""

from __future__ import annotations

import math

from .errors import DivisionByZero, NegativeSqrt, NoConvergence
from .hpreal import HPReal, round_raw

GUARD_BITS = 64
# the scale 2**BOUND_BITS of the upward bounds on moduli and their powers
# (modulus_bound, power_up)
BOUND_BITS = 64


def frac_bits(precision: int) -> int:
    return precision + GUARD_BITS


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def to_fixed(x: HPReal, frac: int) -> int:
    """x * 2**frac: exact when frac >= -x.exponent (see exact_frac), else
    truncated toward zero, an error under one unit."""
    shift = x.exponent + frac
    m = x.mantissa << shift if shift >= 0 else x.mantissa >> -shift
    return -m if x.sign < 0 else m


def exact_frac(x: HPReal, frac: int) -> int:
    """The least frac' >= frac at which to_fixed(x, frac') is exact."""
    return frac if x.sign == 0 else max(frac, -x.exponent)


def lift(values, frac: int) -> tuple:
    """(frac', [v * 2**frac' for v in values]) for HPReal values, frac' the
    least frac' >= frac at which every value converts exactly."""
    for v in values:
        frac = exact_frac(v, frac)
    return frac, [to_fixed(v, frac) for v in values]


def to_hpreal(v: int, frac: int, precision: int) -> HPReal:
    """v * 2**-frac rounded once to `precision` bits, half to even."""
    if v == 0:
        return HPReal.zero(precision)
    s, m, e = round_raw(1 if v > 0 else -1, abs(v), -frac, precision)
    return HPReal._raw(s, m, e, precision)


def round_bits(v: int, precision: int) -> int:
    """v rounded once to `precision` significant bits, half to even, at the
    same scale: to_fixed(to_hpreal(v, frac, precision), frac) at every
    frac, as rounding drops only bits below the unit, without forming the
    HPReal.  The quotient q of v by 2**drop is floored and moves up past
    half, or at half when odd: half to even on the signed value is half to
    even on its magnitude, with its sign.  A carry into 2**precision keeps
    the exact value."""
    drop = abs(v).bit_length() - precision
    if drop <= 0:
        return v
    q = v >> drop
    rem, half = v - (q << drop), 1 << (drop - 1)
    if rem > half or (rem == half and q & 1):
        q += 1
    return q << drop


def to_hpreal_up(v: int, frac: int, precision: int) -> HPReal:
    """v * 2**-frac for v >= 0 rounded once upward to `precision` bits."""
    if v == 0:
        return HPReal.zero(precision)
    drop = max(v.bit_length() - precision, 0)
    keep = -(-v >> drop)
    if keep.bit_length() > precision:  # carried into 2**precision: exact
        keep >>= 1
        drop += 1
    return HPReal._raw(1, keep << (precision - keep.bit_length()),
                       drop - frac - (precision - keep.bit_length()), precision)


# ---------------------------------------------------------------------------
# complex arithmetic on integer pairs
# ---------------------------------------------------------------------------


def mul(a: tuple, b: tuple, frac: int) -> tuple:
    """a * b, each component floored: error below one unit per component."""
    ar, ai = a
    br, bi = b
    return (ar * br - ai * bi) >> frac, (ar * bi + ai * br) >> frac


def power(a: tuple, n: int, frac: int) -> tuple:
    """a**n for n >= 0 by binary powering, most significant bit first; within
    power_error(a, n, frac) units of the exact power of the pair a.

    Squares and steps by a are floored per component as :func:`mul` floors
    them (the square's real part as (x + y)(x - y), its imaginary part as
    x y >> frac - 1, the floor of 2 x y >> frac); they are written out here
    because the ladder is the kernel's inner loop.
    """
    if n == 0:
        return 1 << frac, 0
    ar, ai = a
    xr, xi = a
    half = frac - 1
    for bit in bin(n)[3:]:
        xr, xi = ((xr + xi) * (xr - xi)) >> frac, (xr * xi) >> half
        if bit == "1":
            xr, xi = (xr * ar - xi * ai) >> frac, (xr * ai + xi * ar) >> frac
    return xr, xi


def powers(a: tuple, m: int, frac: int) -> list:
    """[P_0, ..., P_m], P_k the pair a**k by iterated :func:`mul`; P_k is
    within e_k <= sqrt(2) k u W**(k - 1) of the exact power of the pair a,
    with u = 2**-frac and W = max(1, |a|).

    Proof: P_0 = 1 and P_1 = a are exact (a * 2**frac shifted back by frac),
    so e_0 = e_1 = 0.  P_(k+1) is P_k * a floored per component, which moves
    it by less than sqrt(2) u, so

        e_(k+1) <= |P_k - a**k| |a| + sqrt(2) u <= W e_k + sqrt(2) u,

    and by induction e_k <= sqrt(2) u (1 + W + ... + W**(k - 1))
    <= sqrt(2) k u W**(k - 1).  No premise on m or frac is needed: the
    recurrence is linear in e_k.
    """
    out = [(1 << frac, 0)]
    for _ in range(m):
        out.append(mul(out[-1], a, frac))
    return out


def sqrt_up(v: int) -> int:
    """ceil(sqrt(v)) for an integer v >= 0."""
    r = math.isqrt(v)
    return r + (r * r < v)


def shift_up(v: int, s: int) -> int:
    """v * 2**s for integers v >= 0 and s, rounded up."""
    return v << s if s >= 0 else -(-v >> -s)


def modulus_up(norm: int, frac: int) -> int:
    """sqrt(norm) * 2**-frac times 2**BOUND_BITS, rounded up: the modulus of
    a pair whose squared modulus, at 2 frac fraction bits, is norm."""
    return sqrt_up(shift_up(norm, 2 * (BOUND_BITS - frac)))


def modulus_bound(a: tuple, frac: int) -> int:
    """W = max(1, |a|) of the pair a, times 2**BOUND_BITS, rounded up."""
    ar, ai = a
    return max(modulus_up(ar * ar + ai * ai, frac), 1 << BOUND_BITS)


def power_up(w: int, e: int) -> int:
    """(w * 2**-BOUND_BITS)**e times 2**BOUND_BITS for w >= 0 and e >= 0,
    rounded up: binary powering on integers at that scale with every product
    rounded upward, so at or above the exact power.  Every bound on a power
    in the package runs on this one ladder."""
    if e == 0:
        return 1 << BOUND_BITS
    p = w
    for bit in bin(e)[3:]:
        p = -(-(p * p) >> BOUND_BITS)
        if bit == "1":
            p = -(-(p * w) >> BOUND_BITS)
    return p


def power_error(a: tuple, n: int, frac: int) -> int:
    """An upper bound, in units u = 2**-frac, on |power(a, n) - a**n|.

    Claim: with W = max(1, |a|), every power a**m the ladder forms (m <= n)
    carries an error e_m <= 2 (m - 1) u W**(m - 1), provided n**2 u <= 1/2.

    Proof by induction over the ladder.  e_1 = 0: the pair a is exact.  Each
    later value is the floored product of computed a**i and a**j (i + j = m;
    i = j for a square, j = 1 for a step by a itself).  Flooring moves each
    component by less than u, so by less than sqrt(2) u in modulus, and
    |a**i| <= W**i, hence

        e_m <= W**i e_j + W**j e_i + e_i e_j + sqrt(2) u
            <= 2 (m - 2) u W**(m - 1) + e_i e_j + sqrt(2) u.

    As (i - 1)(j - 1) <= m**2 / 4 and W >= 1, e_i e_j <= m**2 u**2 W**(m - 1)
    <= u W**(m - 1) / 2, and sqrt(2) + 1/2 < 2, which closes the step.

    The premise holds for every n < 2**47 at frac >= 96 (precision >= 32).
    W**(n - 1) is :func:`power_up` of :func:`modulus_bound`, both rounded
    upward, so the value returned is at or above the claimed bound.  It
    reads a only through W, and the solver calls it once per solve, on
    omega's refined pair or on the principal root's.
    """
    if n <= 1:
        return 0
    return shift_up(2 * (n - 1) * power_up(modulus_bound(a, frac), n - 1),
                    -BOUND_BITS)


def newton_step(y: tuple, c: tuple, n: int, frac: int) -> tuple:
    """The Newton correction (y**n - c) / (n y**(n - 1)) for z**n = c, from
    one power, one product and one floored complex division."""
    p = power(y, n - 1, frac)
    yr, yi = mul(p, y, frac)
    rr, ri = yr - c[0], yi - c[1]
    pr, pi = p
    den = n * (pr * pr + pi * pi)
    if not den:
        raise DivisionByZero("Newton step at z = 0")
    return ((rr * pr + ri * pi) << frac) // den, ((ri * pr - rr * pi) << frac) // den


def newton(y: tuple, c: tuple, n: int, frac: int) -> tuple:
    """Newton steps on z**n = c from the pair y until a step d has
    (n - 1) |d|**2 <= u = 2**-frac; returns the last pair.

    A step from y lands about (n - 1) |y - z|**2 / (2 |z|) from the root z
    it approaches, and |d| ~ |y - z|, so at the stop y lies a few units u
    from z when |z| is near 1: after one step from a root rounded to
    precision >= 64 + log2(n) bits, after two or three from a binary64
    seed.  n = 1 stops after its one, exact, step.  Not stopping within
    frac.bit_length() steps, enough to double one correct bit past frac,
    raises NoConvergence.
    """
    for _ in range(frac.bit_length()):
        d = newton_step(y, c, n, frac)
        y = y[0] - d[0], y[1] - d[1]
        if (n - 1) * (d[0] * d[0] + d[1] * d[1]) <= 1 << frac:
            return y
    raise NoConvergence(f"Newton on z**{n} = c did not converge")


def rotate_re(x: int, a: int, b: int, frac: int) -> int:
    """Re((a + ib)(x + i sqrt(1 - x**2))) = a x - b sqrt((1 - x)(1 + x)) for
    |x| <= 1, all in units u = 2**-frac: the real part of one rotation of the
    upper unit semicircle (b < 0 rotates backward).  The square root is the
    floor root of the exact (1 - x)(1 + x) * 4**frac and the sum is floored
    once, so for |b| <= 1 the result is within 2 u of the rotation of x."""
    one = 1 << frac
    h = (one - x) * (one + x)
    if h < 0:
        raise NegativeSqrt(f"rotation of a real part {x} * 2**-{frac} beyond 1")
    return (a * x - b * math.isqrt(h)) >> frac
