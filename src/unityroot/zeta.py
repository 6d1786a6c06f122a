"""The distinguished primitive root zeta(n).

Among the n-th roots of unity with positive imaginary part, exactly one
minimizes the distance to 1; call it zeta = a + ib with radius r = |zeta - 1|
(n >= 3; zeta(1) = 1 and zeta(2) = -1).  That root is
omega = e^(2 pi i/n), and every n reads it, and each power zeta**m, off
the package's one table of roots of unity (:func:`zeta_power`), the roots
of solve_unity(N) for N = zeta_basis(n).  The table's entry 1 is omega_N
by solve_unity's own region check (a seed that reaches any other root
raises NoConvergence), and the descent certificate proves that this root
is the minimizer (:func:`unityroot.descent.build_certificate`), so no
ranking runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixed
from .errors import InvalidN
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .solver import MAX_N, solve_unity, unity_pair

_zeta_cache: dict = {}


@dataclass(eq=False)
class Zeta:
    """The root zeta = a + ib together with its radius r = |zeta - 1|.

    Invariants (up to rounding): a^2 + b^2 = 1 and r^2 = 2 - 2a; for n >= 3
    the imaginary part is positive.  Instances are plain records; validation
    lives in the constructors so that tests can build adversarial values.
    """

    n: int
    a: HPReal
    b: HPReal
    r: HPReal
    precision: int

    def as_complex(self) -> HPComplex:
        return HPComplex(self.a, self.b)


def zeta_basis(n: int) -> int:
    """N = n for even n and 2n for odd n: the index of the root set zeta(n)
    is read from, and of the certificate behind it."""
    return n if n % 2 == 0 else 2 * n


def zeta_power(n: int, m: int, precision: int = 128) -> HPComplex:
    """zeta(n)**m for any integer m, read off the package's one table of
    roots of unity: entry (m N/n) mod N of solve_unity(N) in the powers
    order, N = zeta_basis(n), read in O(1) as an integer pair
    (:func:`unityroot.solver.unity_pair`) and converted exactly.  That
    entry is omega_N**(m N/n) = omega_n**m, each component one rounding of
    an exact integer power, so no product of rounded values runs and the
    error does not grow with m, and the table's n roots are never built.
    For odd n, solve_unity(2n) is the solve a certificate at the doubled
    index reads too.  n < 1 and an odd n above MAX_N / 2 raise InvalidN.
    """
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    if n % 2 and 2 * n > MAX_N:
        raise InvalidN(f"odd n must be in 1..{MAX_N // 2 - 1}, got {n}")
    basis = zeta_basis(n)
    frac, (x, y) = unity_pair(solve_unity(basis, precision), m * (basis // n))
    return HPComplex(fixed.to_hpreal(x, frac, precision),
                     fixed.to_hpreal(y, frac, precision))


def construct_zeta(n: int, precision: int = 128) -> Zeta:
    """Build zeta(n) for any n >= 1: :func:`zeta_power` at m = 1, whose
    index rule and checks it shares.  No arithmetic runs here but
    |zeta - 1|.
    """
    if (n, precision) in _zeta_cache:
        return _zeta_cache[(n, precision)]
    w = zeta_power(n, 1, precision)
    out = Zeta(n=n, a=w.re, b=w.im, r=abs(w - HPComplex.one(precision)),
               precision=precision)
    _zeta_cache[(n, precision)] = out
    return out


def radius_identity_check(zeta: Zeta) -> bool:
    """Verify r^2 = 2 - 2a and (a-1)^2 + b^2 = r^2 within 2**(8-precision)."""
    prec = zeta.precision
    tol = HPReal.pow2(-(prec - 8), prec)
    r2 = zeta.r * zeta.r
    two = HPReal.from_int(2, prec)
    first = r2 - (two - two * zeta.a)
    am1 = zeta.a - HPReal.one(prec)
    second = am1 * am1 + zeta.b * zeta.b - r2
    return abs(first) <= tol and abs(second) <= tol
