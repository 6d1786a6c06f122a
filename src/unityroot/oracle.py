"""Trigonometric ground truth for verification only.

cos(2*pi*k/n) + i*sin(2*pi*k/n) is evaluated from scratch on plain integers
in units u = 2**-F, F = precision + 48: pi by Machin's formula, cosine and
sine by their Taylor series after k/n is reduced to a quadrant exactly, and
each component rounded once, at the end.  Every step floors a nonnegative
value to a multiple of u, an error below u.

Error bound.  (pi) Pi = 16 A_5 - 4 A_239, A_k the alternating sum of
floor(2**F / ((2j + 1) k**(2j + 1))), j >= 0, up to the first zero term: at
most F / (2 log2 k) + 1/2 terms, each off by less than u, and an exact tail
below u, so |Pi u - pi| < 4 (F + 8) u.  (reduction) With q, r = divmod(4k, n),
2 pi k/n = q pi/2 + alpha, alpha = (pi/2) r/n; x = floor(Pi r / (2n)) u has
|x - alpha| < (2 (F + 8) + 1) u, as r/(2n) < 1/2, and x**2 < 2.47.
(series) The term magnitudes of cos x are T_0 = 1 and
T_j = floor(T_(j-1) x**2 / m) with m = (2j - 1) 2j, those of sin x T_0 = x
and m = 2j (2j + 1).  Against the exact terms a_j, E_j = |T_j - a_j| <
E_(j-1) x**2/m + u with E_0 = 0, and x**2/m < 0.21 from j = 2 on, so
E_j < u/0.79 < 3u/2.  A sum stops at its first zero T_J; from there the
exact terms alternate and decrease (a zero T_1 of the cosine means
x**2 < 2u), so the tail is at most a_J <= E_J.  As T_j <= a_j
< 1.24 * 4**(1-j) for j >= 1, J <= F/2 + 2, and each sum is within
(3/2)(F/2 + 3) u of the series at x.  Cosine and sine are 1-Lipschitz, so
before rounding each component is within (2.75 F + 21.5) u < 3 (F + 8) u:
below 2**-(precision + 4) = 2**44 u for every precision below 2**42.  The
quadrant points k/n in {0, 1/4, 1/2, 3/4} have r = 0 and come out exact.

None of the construction modules may import this one, and it uses nothing
of the construction's fixed-point kernel: it exists so that the construction
can be checked against the exponential description it avoids.  The
quarantine is structural and enforced by a test that inspects imports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidN
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .zeta import construct_zeta

_GUARD_BITS = 48

_pi_cache: dict = {}


def _atan_inv_scaled(k: int, bits: int) -> int:
    """atan(1/k) * 2**bits by its alternating series, each term floored."""
    total, sign, j, kpow = 0, 1, 1, k
    while term := (1 << bits) // (j * kpow):
        total += sign * term
        sign, j, kpow = -sign, j + 2, kpow * k * k
    return total


def _series(term: int, x2: int, m: int, frac: int) -> int:
    """The alternating sum of term and its successors, each the floor of the
    last * x2 / (m (m + 1) 4**frac), m rising by 2: cos and sin (see above)."""
    total, sign = 0, 1
    while term:
        total += sign * term
        sign, term, m = -sign, (term * x2 >> 2 * frac) // (m * (m + 1)), m + 2
    return total


@dataclass(eq=False)
class OracleRoot:
    n: int
    k: int
    value: HPComplex


def trig_root(n: int, k: int, precision: int = 128) -> OracleRoot:
    """cos(2*pi*k/n) + i*sin(2*pi*k/n) at the requested precision.

    The fraction k/n is reduced to a quadrant exactly in integers before any
    rounding, so quadrant boundaries (k/n = 1/4 etc.) come out exact.
    """
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    k_orig = k
    k %= n
    work = precision + _GUARD_BITS
    if work not in _pi_cache:
        _pi_cache[work] = (16 * _atan_inv_scaled(5, work)
                           - 4 * _atan_inv_scaled(239, work))
    quadrant, rem = divmod(4 * k, n)
    # X = x * 2**work, x ~ 2*pi * rem/(4n) in [0, pi/2)
    x = _pi_cache[work] * rem // (2 * n)
    c, s = _series(1 << work, x * x, 1, work), _series(x, x * x, 2, work)
    re, im = ((c, s), (-s, c), (-c, -s), (s, -c))[quadrant]
    value = HPComplex(HPReal.from_int(re, precision).scale2(-work),
                      HPReal.from_int(im, precision).scale2(-work))
    return OracleRoot(n=n, k=k_orig, value=value)


def zeta_matches_trig(n: int, precision: int = 128) -> bool:
    """Does the constructed zeta(n) agree with cos(2pi/n) + i sin(2pi/n)?

    True iff the distance is below 2**-(precision/2 - 4).
    """
    built = construct_zeta(n, precision).as_complex()
    reference = trig_root(n, 1, precision).value
    tol = HPReal.pow2(-(precision // 2 - 4), precision)
    return (built - reference).abs2() <= tol * tol
