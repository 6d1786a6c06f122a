"""Selection of the distinguished primitive root candidate.

Among the n-th roots of unity with positive imaginary part, exactly one
minimizes the distance to 1; call it zeta = a + ib with radius r = |zeta - 1|.
For even n >= 6 it is read directly off the solved root set.  n = 1, 2, 4 are
hard-wired (1, -1, i).  Every other n (the odd ones) goes through the doubled
index: the square of zeta(2n) lands on the minimizer for n itself, and the
solved root set of z^(2n) = 1 already holds it, a power of the refined root
formed in the fixed-point kernel and rounded once, so odd-n zeta is
correctly rounded like the even indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixed
from .errors import AmbiguousMinimizer, InvalidN, NoUpperRoot, SelectionError
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .solver import MAX_N, RootSet, distinct_exp, solve_unity, unity_powers

_zeta_cache: dict = {}


@dataclass(eq=False)
class Zeta:
    """The selected root a + ib together with its radius r = |zeta - 1|.

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


def select_zeta(rootset: RootSet) -> Zeta:
    """Pick the unique root with Im > residual_bound minimizing |w - 1|.

    Raises NoUpperRoot when no root clears the residual band,
    AmbiguousMinimizer when the two smallest |w - 1| lie within the
    distinctness floor of ``solver.distinct_exp`` (a solver failure: the
    true gap is above it at every n), and SelectionError when the winner
    violates 0 < a < 1, 0 < b < 1.
    """
    if not rootset.is_unity:
        raise InvalidN("select_zeta expects a unity root set")
    if rootset.n < 3 or rootset.n % 2:
        raise InvalidN(f"select_zeta expects an even n >= 4, got {rootset.n}")
    prec = rootset.precision
    # the roots and the bound enter the fixed-point kernel exactly, so the
    # upper roots are found and ranked by |w - 1|^2 on exact integers
    frac, (floor, *parts) = fixed.lift(
        [rootset.residual_bound] + [v for w in rootset.roots for v in (w.re, w.im)], 0)
    unit = 1 << frac
    upper = [((x - unit) ** 2 + y * y, w)
             for w, x, y in zip(rootset.roots, parts[::2], parts[1::2]) if y > floor]
    # the rounded |w - 1|^2 is monotone in the exact one and a rounded sqrt
    # never reverses an order, so the two smallest distances are the square
    # roots of the rounded squares of the two exactly smallest
    one = HPComplex.one(prec)
    ranked = [((w - one).abs2(), w)
              for _, w in sorted(upper, key=lambda t: t[0])[:2]]
    if not ranked:
        raise NoUpperRoot(f"no root above the real axis for n={rootset.n}")
    (d2, w), rest = ranked[0], ranked[1:]
    r = d2.sqrt()
    tie_gap = HPReal.pow2(-distinct_exp(rootset.n, prec), prec)
    if rest and rest[0][0].sqrt() - r <= tie_gap:
        raise AmbiguousMinimizer(
            "two minimizers within the tie tolerance; the solve is suspect")
    zero = HPReal.zero(prec)
    one_r = HPReal.one(prec)
    if not (zero < w.re < one_r and zero < w.im < one_r):
        raise SelectionError(
            f"minimizer {w.to_complex()} violates 0 < a < 1, 0 < b < 1 for n={rootset.n}")
    return Zeta(n=rootset.n, a=w.re, b=w.im, r=r, precision=prec)


def construct_zeta(n: int, precision: int = 128) -> Zeta:
    """Build zeta(n) for any n >= 1.

    n = 1, 2, 4 are exact constants.  Even n >= 6 selects the minimizer from
    solve_unity(n).  Odd n squares zeta(2n): if w generates all 2n-th roots,
    w^2, w^4, ..., w^(2n) are exactly the n distinct n-th roots, and squaring
    the doubled minimizer lands on the minimizer for n.  That square is
    entry 2 of :func:`unityroot.solver.unity_powers` of solve_unity(2n),
    the solve a certificate at the doubled index reads too; no arithmetic
    runs here but |zeta - 1|.  An odd n above MAX_N / 2 raises InvalidN.
    """
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    if n % 2 and 2 * n > MAX_N:
        raise InvalidN(f"odd n must be in 1..{MAX_N // 2 - 1}, got {n}")
    if (n, precision) in _zeta_cache:
        return _zeta_cache[(n, precision)]
    one = HPReal.one(precision)
    zero = HPReal.zero(precision)
    if n == 1:
        out = Zeta(1, one, zero, zero, precision)
    elif n == 2:
        out = Zeta(2, -one, zero, one + one, precision)
    elif n == 4:
        two = HPReal.from_int(2, precision)
        out = Zeta(4, zero, one, two.sqrt(), precision)
    elif n % 2 == 0:
        out = select_zeta(solve_unity(n, precision))
    else:
        sq = unity_powers(solve_unity(2 * n, precision))[2]
        r = abs(sq - HPComplex.one(precision))
        out = Zeta(n=n, a=sq.re, b=sq.im, r=r, precision=precision)
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
