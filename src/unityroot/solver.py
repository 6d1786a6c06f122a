"""Deterministic root finding for z**n = c.

Every root the solver returns is one rounding of an exact integer pair
(:func:`_round_pairs`), each component rounded once on integers; no
product of rounded values makes a root.  The pairs come from the same two
steps: a binary64 seed, then :func:`unityroot.fixed.newton` on integer
pairs with 64 guard bits, and for a root of unity or a rotated root an
exact integer product of the refined pairs.  The seeds of omega and of the
principal root come from one routine (:func:`_pow_frac`): base**(g/n) from
the binary digits of g/n, each digit selecting a repeated principal square
root (:func:`_csqrt`, the one cancellation-free complex square root).

z**n = 1 is solved without a simultaneous solve (:func:`solve_unity`).
omega = e^(2 pi i/n) = (-1)**(2/n) is seeded in binary64
(:func:`_unity_seed`), refined by Newton and raised to its powers in the
fixed-point kernel.  Those powers are one representative per orbit of the
set under conjugation, and for even n under negation; both maps are exact
sign flips of the components.  The axis roots 1, -1 and +-i are inserted
exactly and every other root is a sign flip of a representative.  A flip
leaves |z**n - 1| and |z| unchanged, so the bound over the representatives
bounds every root.  The representatives must keep a margin from the
axes, which with the residual bound makes the n roots distinct
(:func:`_check_region`), so no stage touches all n roots.  The unity set
holds the m rounded representatives as integer pairs and builds its n
HPComplex roots in the documented order (:func:`_layout`) only when
`roots` is first read; the certificate, zeta(n) and every zeta**m read
single entries as integer pairs (:func:`unity_pair`) and never build them.
This is the package's one table of the n-th roots of unity:
:func:`unity_powers` reads omega**0..omega**(n - 1) off the documented
order, and the DFT's twiddle table reads it.

For a general c != 0, :func:`solve_binomial` (also exported as
``roots_of``) rotates the principal root c**(1/n) (:func:`newton_root`,
the seed t**(1/n) 2**(g/n) from :func:`_pow_frac`) by the unity roots on
exact integers, Newton's unrounded pair times each ideal pair of the
unity table, which keeps them distinct, and orders and bounds the set
relative to the roots' power-of-two scale.  No root set is screened for
close pairs: each is distinct by construction.  The residual bound of
every root set is a proven upper bound derived from that structure
(:func:`_structural_bound`): each root is held, on exact integers,
against its ideal pair, a power of omega's refined pair times the
principal root's, and one ladder of degree n per solve bounds the ideal
pairs' own residuals, where a bound root by root took one ladder per
root.  Every stage is a pure function of
(c, n, precision), so repeated calls are bit-identical.

Every solve accepts 1 <= n <= MAX_N (:func:`_check_index`).  Only field
operations and square roots are used in every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import fixed
from .errors import InvalidN, NoConvergence, ZeroTarget
from .hpcomplex import HPComplex
from .hpreal import HPReal

# the largest n any solve accepts.  Every solve is close to linear in n
# (cold, solve_binomial(2, 16383) takes about half a second), so cost does
# not set it; it stays until a rule over (n, precision) says where a
# result can exist.  `verify` passes at every precision >= 32 up to it, as
# the arc exclusion keeps the sign of the radial drift; past it, at 32
# bits, solve_unity(2**18) misses its residual target (NoConvergence).
# Odd-n zeta solves at 2n, so `verify --n 16383` stays legal.
MAX_N = 32768

_unity_cache: dict = {}


class _Reps(NamedTuple):
    """omega's m representatives (:func:`solve_unity`), each component
    rounded once to the set's precision, as exact integer pairs at frac
    fraction bits: what a unity set holds until its roots are read."""

    frac: int
    pairs: list


class _Roots:
    """The `roots` field of :class:`RootSet`, a data descriptor.  It holds
    what the set is given: the roots, or from the unity solve omega's
    representatives (:class:`_Reps`).  Reading a held _Reps builds the n
    roots in the documented order (:func:`_unity_roots`) and holds them in
    its place, so a set holds one form, never both.  Reading it on the
    class raises AttributeError, so the field has no default."""

    def __get__(self, rs, owner=None):
        if rs is None:
            raise AttributeError("roots")
        if isinstance(rs._held, _Reps):
            rs._held = _unity_roots(rs._held, rs.n, rs.precision)
        return rs._held

    def __set__(self, rs, value):
        rs._held = value


@dataclass(eq=False)
class RootSet:
    """All n solutions of z**n = target with a certified residual bound.

    `roots` is a tuple of HPComplex.  The unity set of :func:`solve_unity`
    holds omega's m rounded representatives in its place and builds the
    tuple on first read; :func:`unity_pair` reads single entries of either
    form.  ``dataclasses.replace(rs, roots=...)`` gives a set that holds
    the roots given."""

    n: int
    target: HPComplex
    roots: tuple = _Roots()
    residual_bound: HPReal
    precision: int

    @property
    def is_unity(self) -> bool:
        # target == 1, read off the normalised fields: 1 is the mantissa
        # 2**(p - 1) at exponent 1 - p, and no HPComplex is formed
        re, im = self.target.re, self.target.im
        return (im.sign == 0 and re.sign == 1 and re.exponent == 1 - re.precision
                and re.mantissa == 1 << (re.precision - 1))

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


def _complex(pair: tuple, frac: int, precision: int) -> HPComplex:
    """The integer pair at frac fraction bits as an HPComplex, exact for a
    pair of :func:`_round_pairs`."""
    return HPComplex(fixed.to_hpreal(pair[0], frac, precision),
                     fixed.to_hpreal(pair[1], frac, precision))


def _round_pairs(pairs, precision: int) -> tuple:
    """(rounded, dev): each integer pair with each component rounded once
    to `precision` significant bits on integers
    (:func:`unityroot.fixed.round_bits`), at the pairs' own scale, and
    dev = max |round(P) - P|**2 over the pairs P, in the square of their
    unit.

    Every root the solver returns is rounded here.  Rounding drops only
    bits below the unit, so each rounded component is again an integer at
    the pairs' scale, :func:`_complex` converts it exactly, and dev is
    exact.
    """
    rounded, dev = [], 0
    for pr, pi in pairs:
        x, y = fixed.round_bits(pr, precision), fixed.round_bits(pi, precision)
        dev = max(dev, (x - pr) ** 2 + (y - pi) ** 2)
        rounded.append((x, y))
    return rounded, dev


def newton_root(c: HPComplex, n: int, precision: int) -> HPComplex:
    """The principal n-th root of c by the solver's Newton loop; c = 0
    raises ZeroTarget.

    With t = c / 2**s, s = top // 2, so 2**-1/2 <= |t| < 2**1/2, the
    principal root is t**(1/n) 2**(s/n) = 2**k t**(1/n) 2**(g/n),
    g = s - k n in [0, n).  Both powers come from :func:`_pow_frac`, square
    roots and products in binary64, and their product seeds Newton on the
    reduced target c / 2**(k n) within about 2**-45 of its root.  Newton
    runs on integer pairs at frac = precision + 64 fraction bits (the seed
    enters exactly, c / 2**(k n) truncated below 2**-frac), and the root is
    Newton's pair times 2**k, each component rounded once
    (:func:`_round_pairs`).
    """
    a, frac, k = _principal(c, n, precision)
    return _complex(_round_pairs([a], precision)[0][0], frac - k, precision)


def _principal(c: HPComplex, n: int, precision: int) -> tuple:
    """(a, frac, k): a the pair Newton returns for the root of c / 2**(k n)
    at frac fraction bits, unrounded, with 2**k the roots' scale
    (:func:`_root_scale`); the principal root of c is a 2**k."""
    if c.is_zero():
        raise ZeroTarget("z**n = 0 has only the trivial root")
    _check_index(n, precision)
    top, k = _root_scale(c, n)
    s = top // 2
    t = _scale2(c, -s).to_complex()
    seed = _pow_frac(t, 1, n) * _pow_frac(2 + 0j, s - k * n, n)
    frac = fixed.frac_bits(precision)
    a = fixed.newton(_pair(HPComplex.from_float(seed, 53), frac),
                     _pair(c, frac - k * n), n, frac)
    return a, frac, k


def _structural_bound(n: int, frame: tuple, dev: int, frac: int, a: int,
                      rho: int, cmag: int) -> int:
    """N with |y**n - c'| <= N * 2**-(frac + BOUND_BITS) for every root y of
    a set built on one unity frame: y lies near A t, where t is an exact
    power y_1**k of omega's refined pair y_1, a sign flip of one or an exact
    axis root, and A is a pair with |A**n - c'| <= rho.

    The frame (fu, y_1, Wm, e, tau) of :func:`_unity` gives the ideal pairs
    T (:func:`_ideal_pairs`) at fu fraction bits, one per root of unity in
    the documented order, with |T - t| <= e and |t**n - 1| <= tau for an
    exact t of modulus at most Wm (e, tau in units 2**-fu, Wm at scale
    2**BOUND_BITS).  dev = max |y - A T|**2 over the set, exact at 2 frac
    fraction bits; a >= |A| at scale 2**BOUND_BITS; rho and cmag >= |c'| in
    units 2**-frac.  Then |y - A t| <= |y - A T| + |A| e <= eta with

        eta = sqrt(dev) + |A| e,

    |A t| <= |A| Wm and |y| <= |A t| + eta, so

        |y**n - c'| <= |y**n - (A t)**n| + |A**n| |t**n - 1| + |A**n - c'|
                    <= n eta (|A| Wm + eta)**(n - 1) + (|c'| + rho) tau + rho,

    the first term by |u**n - v**n| <= n |u - v| max(|u|, |v|)**(n - 1),
    the others as |A**n| <= |c'| + rho.  Each root is held against its own
    ideal pair, so the rounding of each root and the errors of A and of
    the ideal pairs add up root by root, as in the exact residual, not as
    a sum of maxima over the set.  The square root is rounded up and the
    power is :func:`unityroot.fixed.power_up`, so N is at or above the
    bound.  No ladder of degree n runs here.
    """
    fu, _, wm, e, tau = frame
    g = fixed.BOUND_BITS
    eta = fixed.sqrt_up(dev) + fixed.shift_up(a * e, frac - fu - g)
    big = fixed.shift_up(a * wm, -g) + fixed.shift_up(eta, g - frac)
    return (n * eta * fixed.power_up(big, n - 1)
            + fixed.shift_up((cmag + rho) * tau, g - fu) + (rho << g))


def distinct_exp(n: int, precision: int) -> int:
    """The exponent e of the distinctness floor 2**-e of n roots at
    `precision` bits: max(precision // 4, n.bit_length() + 1).

    As 2**-e < 1/(2n), the floor stays below the spacing 2 sin(pi/n) >= 4/n
    of the n-th roots of unity.  Half the floor is the margin of the region
    check of :func:`_check_region`.
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


def _bounded_rootset(roots, c: HPComplex, n: int, precision: int,
                     bound: HPReal) -> RootSet:
    """The RootSet of roots, the ordered tuple or a unity set's
    representatives, with the residual bound `bound`, which must be at most
    2**((top + 1) // 2) * contract_tol, about |c| * 2**(-precision/2)."""
    top, _ = _root_scale(c, n)
    if bound > contract_tol(precision).scale2((top + 1) // 2):
        raise NoConvergence(
            f"residual bound {bound.to_float():.3g} above target for n={n}")
    return RootSet(n=n, target=c, roots=roots,
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


def _layout(reps: list, one, zero, n: int) -> list:
    """All n roots of z**n = 1 in the documented order as (re, im) pairs,
    built from the representatives' pairs R sorted by descending real part:

        even n:  R, [i], reversed(-conj R), 1, -1, conj R, [-i], reversed(-R)
        odd n:   R, 1, conj R

    ([+-i] when 4 | n), with 1 = (one, zero) and i = (zero, one).  The
    signs of the components place each part in its half plane and
    quadrant, and the flips keep or reverse the order of the real parts, so
    this is the order :func:`_sort_roots` gives.  The components may be
    HPReals or integers: only negation is applied."""
    flips = [(-x, -y) for x, y in reps]
    conj = [(x, y) for (x, _), (_, y) in zip(reps, flips)]
    if n % 2:
        return reps + [(one, zero)] + conj
    mirror = [(x, y) for (_, y), (x, _) in zip(reps, flips)]
    mid = [(zero, one)] if n % 4 == 0 else []
    return (reps + mid + mirror[::-1] + [(one, zero), (-one, -zero)] + conj
            + [(-x, -y) for x, y in mid] + flips[::-1])


def _check_region(reps: list, frac: int, n: int, precision: int) -> None:
    """The region check of the representatives R, the rounded pairs at frac
    fraction bits: Im z > floor/2 for each z in R, and also Re z > floor/2
    for even n, floor = 2**-distinct_exp(n, precision), compared on the
    integers with floor/2 = 2**(frac - margin) units.
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
    least 4/n - 2d > floor apart.  A representative outside the region
    raises NoConvergence naming it and the region.
    """
    margin = distinct_exp(n, precision) + 1
    half = 1 << (frac - margin)
    region = "upper half plane" if n % 2 else "open first quadrant"
    for j, (x, y) in enumerate(reps, 1):
        if not (y > half and (n % 2 or x > half)):
            raise NoConvergence(
                f"representative omega**{j} of z**{n} = 1 is not in the "
                f"{region} (margin 2**-{margin})")


def _unity_roots(reps: _Reps, n: int, precision: int) -> tuple:
    """The n roots of z**n = 1 in the documented order (:func:`_layout`)
    from the representatives, each component converted exactly once and
    the flips negated as HPReals: what reading a unity set's roots
    builds."""
    zs = [(fixed.to_hpreal(x, reps.frac, precision),
           fixed.to_hpreal(y, reps.frac, precision)) for x, y in reps.pairs]
    return tuple(HPComplex(x, y) for x, y in _layout(
        zs, HPReal.one(precision), HPReal.zero(precision), n))


def _representatives(n: int) -> int:
    """m, the number of representatives of the n-th roots of unity: the
    ceil(n/4) - 1 roots of the open first quadrant for even n, the
    (n - 1)/2 of the upper half plane for odd n."""
    return (n + 3) // 4 - 1 if n % 2 == 0 else (n - 1) // 2


def _ideal_pairs(frame: tuple, n: int) -> list:
    """The ideal pairs T of the frame, one per n-th root of unity in the
    documented order: :func:`_layout` of omega's fixed-point powers
    P_k = fixed.powers(y, m)[k], recomputed from y bit for bit.  These are
    the unrounded powers; the unity set holds the m rounded ones, in place
    of its n HPComplex roots (:class:`_Reps`).  The cache keeps y alone
    beside them: holding the m unrounded pairs there too grew the resident
    memory of a run of cold solves by half a megabyte."""
    fu, y = frame[:2]
    return _layout(fixed.powers(y, _representatives(n), fu)[1:], 1 << fu, 0, n)


def _unity(n: int, precision: int) -> tuple:
    """(solve_unity(n, precision), frame), cached: the frame (fu, y, Wm, e,
    tau) of :func:`_structural_bound`, omega's refined pair y at fu fraction
    bits with the bounds on its powers, which bounds the set and every set
    rotated from it.  The set holds the m rounded representatives at fu
    fraction bits (:class:`_Reps`), not its n roots."""
    if (n, precision) in _unity_cache:
        return _unity_cache[(n, precision)]
    _check_index(n, precision)
    m = _representatives(n)
    g, frac, y, powers = fixed.BOUND_BITS, fixed.frac_bits(precision), None, []
    wm, e, tau = 1 << g, 0, 0
    if m:
        seed = HPComplex.from_float(_unity_seed(n), 53)
        frac, y = fixed.lift((seed.re, seed.im), frac)
        y = fixed.newton(tuple(y), (1 << frac, 0), n, frac)
        powers = fixed.powers(y, m, frac)[1:]
        wm = fixed.power_up(fixed.modulus_bound(y, frac), m)
        e = fixed.shift_up(2 * m * wm, -g)
        qr, qi = fixed.power(y, n, frac)
        eps = (fixed.sqrt_up((qr - (1 << frac)) ** 2 + qi * qi)
               + fixed.power_error(y, n, frac))
        tau = fixed.shift_up(m * eps * fixed.power_up(
            (1 << g) + fixed.shift_up(eps, g - frac), m - 1), -g)
    reps, dev = _round_pairs(powers, precision)
    _check_region(reps, frac, n, precision)
    frame = (frac, y, wm, e, tau)
    bound = fixed.to_hpreal_up(
        _structural_bound(n, frame, dev, frac, 1 << g, 0, 1 << frac),
        frac + g, precision)
    out = (_bounded_rootset(_Reps(frac, reps), HPComplex.one(precision), n,
                            precision, bound), frame)
    _unity_cache[(n, precision)] = out
    return out


def solve_unity(n: int, precision: int = 128) -> RootSet:
    """All n solutions of z**n = 1, deterministically ordered.

    No simultaneous solve runs.  The binary64 seed of omega = e^(2 pi i/n)
    (:func:`_unity_seed`) enters the fixed-point kernel exactly and is
    refined on z**n = 1 by :func:`unityroot.fixed.newton` to the pair y,
    and the representatives z_k are its powers P_k = y**k, k = 1..m, from
    :func:`unityroot.fixed.powers`, each component rounded once: the
    m = ceil(n/4) - 1 roots of the open first quadrant for even n, the
    m = (n - 1)/2 of the upper half plane for odd n, by descending real
    part.  The set is closed under conjugation, and
    for even n under negation; both are exact sign flips of the components.
    So the axis roots 1, -1 (even n) and +-i (4 | n) are inserted exactly,
    every other root is conj(z), -z or -conj(z) of a representative z.  The
    representatives are checked on their integers (:func:`_check_region`),
    a region check that with the residual bound proves the n roots
    distinct; a seed that led to another root omega**j would put some
    power outside that region and raise NoConvergence.  The set holds the
    m rounded integer pairs and lays out its n roots in order from them
    (:func:`_layout`) when `roots` is first read; :func:`unity_pair` reads
    one entry without them.

    The residual bound is at most 2**(-precision/2), a proven upper bound
    over every root although it is derived for the representatives only:
    |conj(z)**n - 1| = |conj(z**n - 1)| = |z**n - 1|, for even n
    |(-z)**n - 1| = |z**n - 1|, and an exact axis root has residual 0.  It
    is :func:`_structural_bound` with A = 1, so rho = 0 and |c'| = 1, over
    the frame of omega's powers: in units u = 2**-frac and with
    W = max(1, |y|), each P_k lies within sqrt(2) k u W**(k - 1)
    <= e = 2 m u W**m of y**k (derived in :func:`unityroot.fixed.powers`),
    |y**k| <= Wm = W**m, and

        |(y**k)**n - 1| = |(1 + t)**k - 1| <= k |t| (1 + |t|)**(k - 1)
                        <= tau = m eps (1 + eps)**(m - 1),

    t = y**n - 1, with eps = |Q - 1| + fixed.power_error(y, n) >= |t| from
    Q = fixed.power(y, n), the one ladder of degree n in the bound.
    Rounding a component to `precision` bits only drops bits below u, so
    z_k is a multiple of u and z_k - P_k is exact.  The bound reads
    |z_k**n - 1| <= n eta (Wm + eta)**(n - 1) + tau with
    eta = max_k |z_k - P_k| + e, each term rounded upward.

    The bound also keeps every root near the unit circle, so no separate
    check is needed.  For n >= 2 and r = |z|,

        |z**n - 1| >= | r**n - 1 | >= | r**2 - 1 | = | r - 1 | (r + 1)
                   >= | r - 1 |,

    the first by the reverse triangle inequality, the second as r**n lies
    on the same side of 1 as r**2 and at least as far from it.  So every
    representative, and with it every flip, has | |z| - 1 | <= | |z|**2 - 1 |
    <= residual_bound.  At n = 1 the set is {1}.
    """
    return _unity(n, precision)[0]


def unity_pair(rootset: RootSet, j: int) -> tuple:
    """(frac, (re, im)): omega**j, entry j mod n of :func:`unity_powers`, as
    an exact integer pair at frac fraction bits, in O(1).

    A set that holds its representatives R = omega**1..omega**m, the unity
    set of :func:`solve_unity` until its roots are read, gives a sign flip
    of one of them or an exact axis root, and builds no HPComplex: with
    j mod n in [0, n/2], and conj of the entry n - j above n/2,

        0: 1        n/2: -1        n/4: i        1..m: R
        n/4 < j < n/2 (even n): -conj(omega**(n/2 - j)).

    A set that holds its roots, read or given as by dataclasses.replace,
    gives the root unity_powers reads, converted exactly at the least
    frac >= precision + 64 that holds both components
    (:func:`unityroot.fixed.exact_frac`); such a set that is not a unity
    set of n roots raises InvalidN, as unity_powers does.
    """
    n, held = rootset.n, rootset._held
    j %= n
    lower = 2 * j > n
    if isinstance(held, _Reps):
        frac, pairs = held
        i = n - j if lower else j
        if 0 < i <= len(pairs):
            z = pairs[i - 1]
        elif i == 0 or 2 * i == n:
            z = (1 << frac if i == 0 else -1 << frac), 0
        elif 4 * i == n:
            z = 0, 1 << frac
        else:
            x, y = pairs[n // 2 - i - 1]
            z = -x, y
        return frac, ((z[0], -z[1]) if lower else z)
    if not rootset.is_unity or len(held) != n:
        raise InvalidN(f"unity_pair expects the {n} roots of z**{n} = 1")
    # the index unity_powers reads: the upper roots omega**1..omega**h
    # first, then 1 and for even n -1, then the lower roots reversed
    h = (n - 1) // 2
    z = held[h if j == 0 else j - 1 if j <= h else j if j < n - h
             else 2 * n - h - 1 - j]
    frac = fixed.frac_bits(rootset.precision)
    frac = max(fixed.exact_frac(z.re, frac), fixed.exact_frac(z.im, frac))
    return frac, (fixed.to_fixed(z.re, frac), fixed.to_fixed(z.im, frac))


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

    c is brought to `precision`, and :func:`_principal` (which also checks
    c and n) returns A, Newton's pair for the principal root c**(1/n) / 2**k
    before any rounding, 2**k the roots' scale.  Each root is one rounding
    of an exact integer pair: A T_i, with T_i the unity frame's ideal pair
    of the i-th root of unity (:func:`_ideal_pairs`), formed exactly at
    frac + fu fraction bits and rounded once per component at
    frac + fu - k (:func:`_round_pairs`), which is the root z_i = 2**k A T_i.
    The set is ordered with the real band 2**k * contract_tol.

    The residual bound comes from the rotation's structure
    (:func:`_structural_bound`), with one ladder of degree n.  Write
    y = z / 2**k and c' = c / 2**(k n), so |z**n - c| = 2**(k n)
    |y**n - c'|.  c' enters the fixed-point kernel exactly at
    frac >= precision + 64 fraction bits, A is shifted to it, and rounding
    drops only bits below the unit 2**-(frac + fu) of A T_i, so
    dev = max |y_i - A T_i|**2 comes exactly from the same integers.
    rho = |Q - c'| + fixed.power_error(A, n) >= |A**n - c'|,
    Q = fixed.power(A, n), and the sum is rounded upward once.

    The rotation keeps the set distinct: the unity roots w_i, the T_i
    rounded once, lie at least (4/n)(1 - eps) apart (:func:`_unity_layout`),
    and y_i lies within one rounding of A T_i, with |A| >= 2**(-1/(2n)).
    With eps also covering the one rounding of each y_i and of each w_i,

        |z_i - z_j| = 2**k |y_i - y_j| >= 2**k |A| (4/n)(1 - eps)
                    > 2**k * floor,

    floor = 2**-distinct_exp(n, precision) < 1/(2n).
    """
    c = HPComplex(c.re.with_precision(precision), c.im.with_precision(precision))
    a, fa, k = _principal(c, n, precision)
    _, frame = _unity(n, precision)
    cs = _scale2(c, -k * n)
    frac, (cr, ci) = fixed.lift((cs.re, cs.im), fa)
    fu = frame[0]
    ar, ai = a[0] << (frac - fa), a[1] << (frac - fa)
    pairs, dev = _round_pairs([(ar * tr - ai * ti, ar * ti + ai * tr)
                               for tr, ti in _ideal_pairs(frame, n)], precision)
    roots = [_complex(z, frac + fu - k, precision) for z in pairs]
    qr, qi = fixed.power((ar, ai), n, frac)
    rho = (fixed.sqrt_up((qr - cr) ** 2 + (qi - ci) ** 2)
           + fixed.power_error((ar, ai), n, frac))
    total = _structural_bound(
        n, frame, dev, frac + fu, fixed.modulus_up(ar * ar + ai * ai, frac),
        rho << fu, fixed.sqrt_up(cr * cr + ci * ci) << fu)
    bound = fixed.to_hpreal_up(total, frac + fu + fixed.BOUND_BITS - k * n,
                               precision)
    return _bounded_rootset(
        tuple(_sort_roots(roots, contract_tol(precision).scale2(k))),
        c, n, precision, bound)
