"""Order computation, primitivity criteria, and n-th roots of arbitrary c
(``roots_of``, the solver's ``solve_binomial`` under the name it has here).

"w^d = 1" is always read as |w^d - 1| <= tol with an explicit tolerance;
distinct roots of unity at the scales handled here are separated by at least
2*sin(pi/n), far above any tolerance in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fixed
from .errors import InvalidM, InvalidN, NotARoot, NotPrime
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .solver import contract_tol, solve_binomial


def _divisors(n: int) -> list:
    """The divisors of n >= 1 in ascending order, each d <= sqrt(n) paired
    with n // d: sqrt(n) trial divisions, not n."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def is_prime(n: int) -> bool:
    """Trial division; n here is always tiny."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(eq=False)
class PrimitivityReport:
    w: HPComplex
    n: int
    order: int
    is_primitive: bool
    tol: HPReal


def _unity_test(w: HPComplex, n: int, tol: HPReal | None) -> tuple:
    """(tol, within), tol defaulting to contract_tol at w's precision and
    within(d) deciding |w^d - 1|**2 <= tol**2, once w^n = 1 within tol;
    NotARoot otherwise, and InvalidN for n < 1.

    w and tol enter the fixed-point kernel exactly, at no fewer than
    frac_bits(w.precision) fraction bits, and w^d is fixed.power's, so each
    test is one power and one comparison of exact integers.
    """
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    if tol is None:
        tol = contract_tol(w.precision)
    frac, (wr, wi, t) = fixed.lift((w.re, w.im, tol), fixed.frac_bits(w.precision))
    one, t2 = 1 << frac, t * t
    # g = floor(log2 |w|); for g >= 1, |w^d - 1| >= |w|^d / 2 >= 2**(g d - 1),
    # so a power that would outgrow tol < 2**(t.bit_length() - frac) is
    # never formed
    g = ((wr * wr + wi * wi).bit_length() - 1) // 2 - frac

    def within(d: int) -> bool:
        if g >= 1 and g * d - 1 >= abs(t).bit_length() - frac:
            return False
        pr, pi = fixed.power((wr, wi), d, frac)
        return (pr - one) ** 2 + pi * pi <= t2

    if not within(n):
        raise NotARoot(f"w^{n} is not 1 within tolerance")
    return tol, within


def multiplicative_order(w: HPComplex, n: int, tol: HPReal | None = None) -> PrimitivityReport:
    """Smallest d >= 1 with |w^d - 1| <= tol; only divisors of n can qualify,
    so only those are scanned.  within(n) holds once _unity_test returns,
    so the scan stops before n and the order is n when no proper divisor
    qualifies: w^n is formed once."""
    tol, within = _unity_test(w, n, tol)
    d = next((d for d in _divisors(n)[:-1] if within(d)), n)
    return PrimitivityReport(w=w, n=n, order=d, is_primitive=(d == n), tol=tol)


def gcd_primitivity(m: int, n: int) -> bool:
    """zeta^m is primitive iff gcd(m, n) = 1."""
    if not (1 <= m <= n):
        raise InvalidM(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")
    return math.gcd(m, n) == 1


def prime_shortcut(w: HPComplex, n: int, tol: HPReal | None = None) -> bool:
    """For prime n, every n-th root of unity other than 1 is primitive."""
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    _, within = _unity_test(w, n, tol)
    return not within(1)


# all n roots of z**n = c for c != 0: the solver's rotation, one function
# under both names
roots_of = solve_binomial
