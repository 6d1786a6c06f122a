"""Deterministic root finding for z**n = c.

Every root the solver refines takes the same two steps: a binary64 seed,
then :func:`unityroot.fixed.newton` on integer pairs with 64 guard bits,
each component rounded once.  The seeds of omega and of the principal root
come from one routine (:func:`_pow_frac`): base**(g/n) from the binary
digits of g/n, each digit selecting a repeated principal square root
(:func:`_csqrt`, the one cancellation-free complex square root).

z**n = 1 is solved without a simultaneous solve (:func:`solve_unity`).
omega = e^(2 pi i/n) = (-1)**(2/n) is seeded in binary64
(:func:`_unity_seed`), refined by Newton and raised to its powers in the
fixed-point kernel.  Those powers are one representative per orbit of the
set under conjugation, and for even n under negation; both maps are exact
sign flips of the components.  The axis roots 1, -1 and +-i are inserted
exactly and every other root is a sign flip of a representative.  A flip
leaves |z**n - 1| and |z| unchanged, so the bound over the representatives
bounds every root.  The representatives must keep a margin from the
axes, which with the residual bound makes the n roots distinct, and the
documented order is built from them (:func:`_unity_layout`), so no stage
touches all n roots.  This is the package's one table of the n-th roots
of unity: :func:`unity_powers` reads omega**0..omega**(n - 1) off the
documented order, and the DFT's twiddle table and zeta(n) use it.

For a general c != 0, :func:`solve_binomial` (also exported as
``roots_of``) rotates the principal root c**(1/n) (:func:`newton_root`,
the seed t**(1/n) 2**(g/n) from :func:`_pow_frac`) by the unity roots,
which keeps them distinct, and orders and bounds the set relative to the
roots' power-of-two scale.  No root set is screened for close pairs: each
is distinct by construction.  The residual bound of every root set is a
proven upper bound evaluated in the same kernel.  Every stage is a pure
function of (c, n, precision), so repeated calls are bit-identical.

Every solve accepts 1 <= n <= MAX_N (:func:`_check_index`).  Only field
operations and square roots are used in every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fixed
from .errors import InvalidN, NoConvergence, ZeroTarget
from .hpcomplex import HPComplex
from .hpreal import HPReal

# the largest n any solve accepts.  Every solve is close to linear in n
# (cold, solve_binomial(2, 16383) takes about a second), so cost does not
# set it; it stays until the certificate holds past it at every precision:
# at 32 bits, `verify` fails its arc exclusion from about n = 6100 already.
# Odd-n zeta solves at 2n, so `verify --n 16383` stays legal.
MAX_N = 32768

_unity_cache: dict = {}


@dataclass(eq=False)
class RootSet:
    """All n solutions of z**n = target with a certified residual bound."""

    n: int
    target: HPComplex
    roots: tuple
    residual_bound: HPReal
    precision: int

    @property
    def is_unity(self) -> bool:
        return self.target == HPComplex.one(self.precision)

    def bit_identical(self, other: "RootSet") -> bool:
        """Field-by-field representation equality (for determinism checks)."""
        if (self.n, self.precision) != (other.n, other.precision):
            return False
        pairs = list(zip(self.roots, other.roots)) + [
            (self.target, other.target)]
        for a, b in pairs:
            for u, v in ((a.re, b.re), (a.im, b.im)):
                if (u.sign, u.mantissa, u.exponent) != (v.sign, v.mantissa, v.exponent):
                    return False
        rb, ob = self.residual_bound, other.residual_bound
        return (rb.sign, rb.mantissa, rb.exponent) == (ob.sign, ob.mantissa, ob.exponent)


# ---------------------------------------------------------------------------
# binary64 seeds
# ---------------------------------------------------------------------------


def _csqrt(y: complex) -> complex:
    """The principal square root of a machine complex, without cancellation:
    the larger component is t = sqrt((|y| + |Re y|)/2), the other
    Im y / (2t).  The sum is formed at 1/8 scale and t as 2 sqrt(sum), both
    exact power-of-two rescalings, so no intermediate overflows at any
    finite y."""
    x, v = y.real, y.imag
    t = 2.0 * math.sqrt(abs(0.125 * y) + 0.125 * abs(x))
    other = v / (2.0 * t)
    return complex(abs(other), math.copysign(t, v)) if x < 0 else complex(t, other)


def _pow_frac(base: complex, g: int, n: int) -> complex:
    """The principal base**(g/n) for 0 <= g <= n in binary64: digit i of the
    binary expansion of g/n (digit 0 the integer part) selects the factor
    base**(2**-i), which is :func:`_csqrt` applied i times.  55 digits leave
    an exponent error below 2**-55; the products and roots add a few units
    of 2**-53 each."""
    out, root = 1 + 0j, base
    for _ in range(55):
        if g >= n:
            g -= n
            out *= root
        g *= 2
        root = _csqrt(root)
    return out


# ---------------------------------------------------------------------------
# high-precision stage
# ---------------------------------------------------------------------------


def contract_tol(precision: int) -> HPReal:
    """2**-(precision/2): the residual contract of a unit-scale root set, and
    the tolerance of every "equal up to rounding" test built on it."""
    return HPReal.pow2(-(precision // 2), precision)


def _root_scale(c: HPComplex, n: int) -> tuple:
    """(top, k): top = floor(log2 |c|^2) + 1, and k = top // (2n), the
    power-of-two scale of the roots, 2**(k - 1/(2n)) <= |z| < 2**(k + 1)."""
    mag2 = c.abs2()
    top = mag2.exponent + mag2.mantissa.bit_length()
    return top, top // (2 * n)


def _scale2(z: HPComplex, k: int) -> HPComplex:
    if not k:
        return z
    return HPComplex(z.re.scale2(k), z.im.scale2(k))


def _pair(z: HPComplex, frac: int) -> tuple:
    return fixed.to_fixed(z.re, frac), fixed.to_fixed(z.im, frac)


def newton_root(c: HPComplex, n: int, precision: int) -> HPComplex:
    """The principal n-th root of c by the solver's Newton loop; c = 0
    raises ZeroTarget.

    With t = c / 2**s, s = top // 2, so 2**-1/2 <= |t| < 2**1/2, the
    principal root is t**(1/n) 2**(s/n) = 2**k t**(1/n) 2**(g/n),
    g = s - k n in [0, n).  Both powers come from :func:`_pow_frac`, square
    roots and products in binary64, and their product seeds Newton on the
    reduced target c / 2**(k n) within about 2**-45 of its root.  Newton
    runs on integer pairs at frac = precision + 64 fraction bits (the seed
    enters exactly, c / 2**(k n) truncated below 2**-frac), and each
    component of the root is rounded once at the end.
    """
    if c.is_zero():
        raise ZeroTarget("z**n = 0 has only the trivial root")
    _check_index(n, precision)
    top, k = _root_scale(c, n)
    s = top // 2
    t = _scale2(c, -s).to_complex()
    seed = _pow_frac(t, 1, n) * _pow_frac(2 + 0j, s - k * n, n)
    frac = fixed.frac_bits(precision)
    yr, yi = fixed.newton(_pair(HPComplex.from_float(seed, 53), frac),
                          _pair(c, frac - k * n), n, frac)
    return HPComplex(fixed.to_hpreal(yr, frac - k, precision),
                     fixed.to_hpreal(yi, frac - k, precision))


def _residual_bound(zs: list, c: HPComplex, n: int, k: int,
                    precision: int) -> HPReal:
    """A proven upper bound on |z**n - c| over the roots zs, rounded upward.

    Write y = z / 2**k and c' = c / 2**(k n), so |z**n - c| = 2**(k n)
    |y**n - c'|.  Both enter the fixed-point kernel exactly: frac starts at
    precision + 64 and is raised until every component of every y and of c'
    is a multiple of 2**-frac.  With P = fixed.power(y, n) and all values
    in units of 2**-frac,

        |y**n - c'| <= |P - c'| + |P - y**n|
                    <= ceil(sqrt(|P - c'|**2)) + fixed.power_error(y, n),

    where |P - c'|**2 is an exact integer and the second term is the
    kernel's proven bound on its own power (derived in
    :func:`fixed.power_error`, once per distinct fixed.modulus_bound).  The
    largest such integer N over the roots gives
    |z**n - c| <= N * 2**(k n - frac), which is rounded upward once.
    """
    scaled = [_scale2(c, -k * n)] + [_scale2(z, -k) for z in zs]
    frac, parts = fixed.lift([v for z in scaled for v in (z.re, z.im)],
                             fixed.frac_bits(precision))
    cr, ci = parts[:2]
    worst, errors = 0, {}
    for y in zip(parts[2::2], parts[3::2]):
        pr, pi = fixed.power(y, n, frac)
        norm = (pr - cr) ** 2 + (pi - ci) ** 2
        r = math.isqrt(norm)
        w = fixed.modulus_bound(y, frac)
        if w not in errors:
            errors[w] = fixed.power_error(y, n, frac)
        worst = max(worst, r + (r * r < norm) + errors[w])
    return fixed.to_hpreal_up(worst, frac - k * n, precision)


def distinct_exp(n: int, precision: int) -> int:
    """The exponent e of the distinctness floor 2**-e of n roots at
    `precision` bits: max(precision // 4, n.bit_length() + 1).

    As 2**-e < 1/(2n), the floor stays below the spacing 2 sin(pi/n) >= 4/n
    of the n-th roots of unity.  Half the floor is the margin of the region
    check of :func:`_unity_layout`.
    """
    return max(precision // 4, n.bit_length() + 1)


def _sort_roots(zs: list, band: HPReal) -> list:
    """Deterministic order: upper half plane first, then the real band, then
    the lower half; descending real part within each band."""

    def key(z: HPComplex):
        if z.im > band:
            group = 0
        elif -z.im > band:
            group = 2
        else:
            group = 1
        return (group, -z.re)

    return sorted(zs, key=key)


def _bounded_rootset(zs: list, c: HPComplex, n: int, precision: int,
                     covering: list) -> RootSet:
    """The RootSet of the ordered roots zs, with the residual bound taken
    over `covering`, roots whose residuals cover every root of zs; the bound
    must be at most 2**((top + 1) // 2) * contract_tol, about
    |c| * 2**(-precision/2)."""
    top, k = _root_scale(c, n)
    bound = _residual_bound(covering, c, n, k, precision)
    if bound > contract_tol(precision).scale2((top + 1) // 2):
        raise NoConvergence(
            f"residual bound {bound.to_float():.3g} above target for n={n}")
    return RootSet(n=n, target=c, roots=tuple(zs),
                   residual_bound=bound, precision=precision)


def _check_index(n: int, precision: int) -> None:
    if not 1 <= n <= MAX_N:
        raise InvalidN(f"n must be in 1..{MAX_N}, got {n}")
    HPReal._check_precision(precision)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _unity_seed(n: int) -> complex:
    """e^(2 pi i/n) = (-1)**(2/n) in binary64 by :func:`_pow_frac`: digit i
    of 2/n selects r_(i+1) = e^(2 pi i 2**-(i+1)), with r_1 = -1 and
    r_(i+1) the principal square root of r_i; 1 = (-1)**0 for n = 1."""
    return _pow_frac(-1 + 0j, 2 if n > 1 else 0, n)


def _unity_layout(reps: list, n: int, precision: int) -> list:
    """All n roots of z**n = 1 in the documented order, built from the
    representatives R sorted by descending real part:

        even n:  R, [i], reversed(-conj R), 1, -1, conj R, [-i], reversed(-R)
        odd n:   R, 1, conj R

    ([+-i] when 4 | n).  The signs of the components place each part in its
    half plane and quadrant, and the flips keep or reverse the order of the
    real parts, so this is the order :func:`_sort_roots` gives.

    The one check is the region: Im z > floor/2 for each z in R, and also
    Re z > floor/2 for even n, floor = 2**-distinct_exp(n, precision).
    With the residual bound B <= 2**(1 - precision // 2) that
    :func:`_bounded_rootset` asks of the set, it makes R the m = len(R)
    n-th roots of unity of the open region A (the upper half plane for odd
    n, the first quadrant for even n), so no pair of roots is compared:

    - Each z in R lies within d = 4B/n of an exact n-th root of unity r:
      arg z**n is within arcsin B <= pi B/2 of 0 and | |z| - 1 | <=
      B/(n (1 - B)), so |z - r| <= ((1 + B/(1 - B)) pi/2 + 1/(1 - B)) B/n
      < 4B/n.  As d < floor/2 at every n and precision, r lies in A.
    - Consecutive representatives are consecutive fixed-point powers of
      the refined omega, each rounded once: |z_(k+1) - z_k z_1| <
      2**(2 - precision).  So r_(k+1) lies within 4d + 2**(2 - precision)
      of r_k r_1, less than the spacing 2 sin(pi/n) >= 4/n of distinct
      roots, and r_k = r_1**k.
    - r_1 = e^(2 pi i j/n) lies in A, so its step 2 pi j/n is shorter than
      the complement of A, and the powers r_1, ..., r_1**m cannot jump over
      it: they all lie in A only if m 2 pi j/n stays below the end of A, pi
      for odd n and pi/2 for even n, which holds for j = 1 alone.  So
      r_k = e^(2 pi i k/n), the m roots of A in turn.

    Each flip of R and each exact axis root then lies as near to its own
    root of the other quadrants and axes, so any two of the n roots lie at
    least 4/n - 2d > floor apart.
    """
    one = HPComplex.one(precision)
    half = HPReal.pow2(-distinct_exp(n, precision) - 1, precision)
    for z in reps:
        if not (z.im > half and (n % 2 or z.re > half)):
            raise NoConvergence(
                "a root and its mirror image collapsed below the distinctness floor")
    flips = [(-z.re, -z.im) for z in reps]
    conj = [HPComplex(z.re, y) for z, (_, y) in zip(reps, flips)]
    if n % 2:
        return reps + [one] + conj
    mirror = [HPComplex(x, z.im) for z, (x, _) in zip(reps, flips)]
    mid = [HPComplex.i(precision)] if n % 4 == 0 else []
    return (reps + mid + mirror[::-1] + [one, -one] + conj + [-z for z in mid]
            + [HPComplex(x, y) for x, y in reversed(flips)])


def solve_unity(n: int, precision: int = 128) -> RootSet:
    """All n solutions of z**n = 1, deterministically ordered.

    No simultaneous solve runs.  The binary64 seed of omega = e^(2 pi i/n)
    (:func:`_unity_seed`) enters the fixed-point kernel exactly and is
    refined on z**n = 1 by :func:`unityroot.fixed.newton`, and the
    representatives are its powers omega, ..., omega**m from
    :func:`unityroot.fixed.powers`, each component rounded once: the
    m = ceil(n/4) - 1 roots of the open first quadrant for even n, the
    m = (n - 1)/2 of the upper half plane for odd n, by descending real
    part.  The set is closed under conjugation, and
    for even n under negation; both are exact sign flips of the components.
    So the axis roots 1, -1 (even n) and +-i (4 | n) are inserted exactly,
    every other root is conj(z), -z or -conj(z) of a representative z, and
    the set is checked and laid out in order from the representatives
    (:func:`_unity_layout`), whose region check with the residual bound
    proves the n roots distinct.  A seed that led to another root omega**j
    would put some power outside that region and raise NoConvergence.

    The residual bound is at most 2**(-precision/2), a proven upper bound
    over every root although it is evaluated on the representatives only:
    |conj(z)**n - 1| = |conj(z**n - 1)| = |z**n - 1|, for even n
    |(-z)**n - 1| = |z**n - 1|, and an exact axis root has residual 0.

    The bound also keeps every root near the unit circle, so no separate
    check is needed.  For n >= 2 and r = |z|,

        |z**n - 1| >= | r**n - 1 | >= | r**2 - 1 | = | r - 1 | (r + 1)
                   >= | r - 1 |,

    the first by the reverse triangle inequality, the second as r**n lies
    on the same side of 1 as r**2 and at least as far from it.  So every
    representative, and with it every flip, has | |z| - 1 | <= | |z|**2 - 1 |
    <= residual_bound.  At n = 1 the set is {1}.
    """
    if (n, precision) in _unity_cache:
        return _unity_cache[(n, precision)]
    _check_index(n, precision)
    want = (n + 3) // 4 - 1 if n % 2 == 0 else (n - 1) // 2
    reps = []
    if want:
        seed = HPComplex.from_float(_unity_seed(n), 53)
        frac, y = fixed.lift((seed.re, seed.im), fixed.frac_bits(precision))
        y = fixed.newton(tuple(y), (1 << frac, 0), n, frac)
        reps = [HPComplex(fixed.to_hpreal(re, frac, precision),
                          fixed.to_hpreal(im, frac, precision))
                for re, im in fixed.powers(y, want, frac)[1:]]
    one = HPComplex.one(precision)
    out = _bounded_rootset(_unity_layout(reps, n, precision), one, n,
                           precision, reps)
    _unity_cache[(n, precision)] = out
    return out


def unity_powers(rootset: RootSet) -> tuple:
    """(omega**0, ..., omega**(n - 1)), omega = e^(2 pi i/n), of a unity
    root set, read off the documented order of :func:`solve_unity`: the
    h = ceil(n/2) - 1 upper roots are omega**1..omega**h, then come 1 and,
    for even n, -1, then the lower roots conj(omega**1)..conj(omega**h),
    which are omega**(n - 1)..omega**(n - h).  No arithmetic runs, so the
    table is closed under conjugation bit for bit and its axis entries are
    exact.  A set that is not a unity set of n roots raises InvalidN.
    """
    n, roots = rootset.n, rootset.roots
    if not rootset.is_unity or len(roots) != n:
        raise InvalidN(f"unity_powers expects the {n} roots of z**{n} = 1")
    h = (n - 1) // 2
    return roots[h:h + 1] + roots[:h] + roots[h + 1:n - h] + roots[n - h:][::-1]


def solve_binomial(c: HPComplex, n: int, precision: int = 128) -> RootSet:
    """All n solutions of z**n = c for c != 0, as {w z : w**n = 1}.

    c is brought to `precision`, z0 = c**(1/n) is the principal root from
    :func:`newton_root` (which also checks c and n), and it is rotated by
    the n roots w_i of solve_unity(n), one rounded product each.  The set
    is ordered with the real band 2**k * contract_tol, 2**k the roots'
    scale, and bounded over every root by :func:`_bounded_rootset`.

    The rotation keeps the set distinct: the w_i lie at least
    (4/n)(1 - eps) apart (:func:`_unity_layout`), eps also covering the
    rounding of the products, and |z0| >= 2**(k - 1/(2n)), so

        |z0 w_i - z0 w_j| >= |z0| (4/n)(1 - eps) > 2**k * floor,

    floor = 2**-distinct_exp(n, precision) < 1/(2n).
    """
    c = HPComplex(c.re.with_precision(precision), c.im.with_precision(precision))
    z0 = newton_root(c, n, precision)
    _, k = _root_scale(c, n)
    roots = _sort_roots([z0 * w for w in solve_unity(n, precision).roots],
                        contract_tol(precision).scale2(k))
    return _bounded_rootset(roots, c, n, precision, roots)
