"""Real-part rotation maps and the primitivity certificate.

For a point z = x + i*sqrt(1-x^2) on the upper unit semicircle, multiplying
by zeta = a + ib rotates it one step; the real part moves by

    advance_re(x)  = a*x - b*sqrt(1 - x^2)      on [-a, 1]  ->  [-1, a]
    retreat_re(y)  = a*y + b*sqrt(1 - y^2)      on [-1, a]  ->  [-a, 1]

which are strictly increasing mutual inverses.  Iterating advance_re from
x_0 = 1 produces the strictly decreasing descent sequence x_k = Re(zeta^k),
which must land exactly on -1 after p = n/2 steps; the certificate records
that together with the interval partition, the reconstruction of all n roots
from powers and conjugates, and a proof that the outer arcs contain no
further roots.

Both maps, and every step of the descent, run in the fixed-point kernel
(:func:`unityroot.fixed.rotate_re`): a, b and the argument enter exactly at
precision + 64 fraction bits or more, sqrt(1 - x^2) is the integer square
root of the exact (1 - x)(1 + x), and each returned value, each x_k of the
descent included, is rounded once.  The descent iterates on the unrounded
integers, so its rounding errors stay at the 64 guard bits.

The last two checks read one table of powers P_k ~ zeta^k, k = 0..p, formed
on integer pairs by :func:`unityroot.fixed.powers`.  The arc exclusion is
Smale's alpha-test on z^n - 1 at the dyadic zeta (Smale 1986, *Newton's
method estimates from data at one point*; Blum, Cucker, Shub & Smale 1998,
*Complexity and Real Computation*, ch. 8): it proves an exact n-th root of
unity omega next to zeta, and the descent's gaps then prove
omega = e^(2 pi i/n).  The derivation is in ``_arc_exclusion_ok``; it uses
integer arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import fixed
from .errors import (CertificateFailure, DomainViolation, InvalidN,
                     NonDescent, StepLimit)
from .hpreal import HPReal
from .solver import RootSet, contract_tol, unity_pair
from .zeta import Zeta

# the descent and its certificate take even n >= DESCENT_MIN_N only
DESCENT_MIN_N = 6

# the alpha-test accepts alpha < 2**-_ALPHA_EXP, far below the alpha_0 of
# Smale's alpha-theorem (see _arc_exclusion_ok)
_ALPHA_EXP = 6


def _rotate_re(x: HPReal, zeta: Zeta, sign: int) -> HPReal:
    """advance_re (sign 1) or retreat_re (sign -1) of x: one
    :func:`unityroot.fixed.rotate_re` step, rounded once."""
    prec = zeta.precision
    frac, (a, b, v) = fixed.lift((zeta.a, zeta.b, x), fixed.frac_bits(prec))
    one = 1 << frac
    lo, hi = (-a, one) if sign > 0 else (-one, a)
    tol = fixed.to_fixed(contract_tol(prec), frac)
    if not lo - tol <= v <= hi + tol:
        name, domain = (("advance_re", "[-a, 1]") if sign > 0
                        else ("retreat_re", "[-1, a]"))
        raise DomainViolation(f"{name} argument {x.to_float()} outside {domain}")
    y = fixed.rotate_re(min(max(v, lo), hi), a, sign * b, frac)
    return fixed.to_hpreal(y, frac, prec)


def advance_re(x: HPReal, zeta: Zeta) -> HPReal:
    """a*x - b*sqrt(1-x^2) with clamping on [-a, 1].

    Inputs beyond the domain by more than 2**(-precision/2) raise
    DomainViolation; within that band they are clamped to the boundary, which
    is sound because the map extends continuously to the closed interval.
    """
    return _rotate_re(x, zeta, 1)


def retreat_re(y: HPReal, zeta: Zeta) -> HPReal:
    """The inverse map a*y + b*sqrt(1-y^2) with clamping on [-1, a]."""
    return _rotate_re(y, zeta, -1)


def advance_re_derivative(x: HPReal, zeta: Zeta) -> HPReal:
    """a + b*x/sqrt(1-x^2), strictly positive on the open domain (-a, 1).

    Arguments at or past the singular guard |x| > 1 - 2**(-precision/4)
    are rejected.
    """
    prec = zeta.precision
    one = HPReal.one(prec)
    guard = one - HPReal.pow2(-(prec // 4), prec)
    if not (-zeta.a < x < one) or abs(x) > guard:
        raise DomainViolation(
            f"derivative argument {x.to_float()} outside the open domain")
    return zeta.a + zeta.b * x / ((one - x) * (one + x)).sqrt()


def descent_sequence(zeta: Zeta):
    """Iterate advance_re from x_0 = 1 until the iterate leaves [-a, 1].

    The iterates stay unrounded integers in units of 2**-frac,
    frac >= precision + 64, through :func:`unityroot.fixed.rotate_re`; each
    x_k is rounded once into xs, so x_0 = 1 and x_1 = a exactly.

    Returns (xs, p) where xs = [x_0, ..., x_p] and x_p is the first element
    below -a by more than min(2**(-precision/2), (1 - a)/2): past the
    clamping tolerance, and past half the last step from -a = Re(zeta^(p-1))
    to -1 = Re(zeta^p), which is 1 - a.  The boundary value -a itself is
    still in the domain and takes one more step, which is what carries the
    sequence onto -1; -1 exits even where the last step is narrower than the
    clamping tolerance (n above about pi sqrt(2) 2**(precision/4), 1137 at
    32 bits).  A sequence still in the domain after n steps raises
    StepLimit.
    """
    frac, _, xs = _descent(zeta)
    return [fixed.to_hpreal(x, frac, zeta.precision) for x in xs], len(xs) - 1


def _descent(zeta: Zeta) -> tuple:
    """(frac, (a, b), X): zeta's a and b lifted exactly to frac >= precision
    + 64 fraction bits, and X the descent of :func:`descent_sequence`, each
    x_k rounded once to `precision` bits on integers
    (:func:`unityroot.fixed.round_bits`), an exact integer at frac."""
    if zeta.n < DESCENT_MIN_N or zeta.n % 2:
        raise InvalidN(f"descent requires an even n >= 6, got {zeta.n}")
    prec = zeta.precision
    frac, (a, b) = fixed.lift((zeta.a, zeta.b), fixed.frac_bits(prec))
    one = 1 << frac
    exit_bound = -a - min(fixed.to_fixed(contract_tol(prec), frac),
                          (one - a) >> 1)
    xs = [one]
    while xs[-1] >= exit_bound:
        if len(xs) > zeta.n:
            raise StepLimit(f"no exit from [-a, 1] within {zeta.n} steps")
        nxt = fixed.rotate_re(max(xs[-1], -a), a, b, frac)
        if nxt >= xs[-1]:
            raise NonDescent(f"x_{len(xs)} = "
                             f"{fixed.to_hpreal(nxt, frac, prec).to_float()} "
                             "did not decrease")
        xs.append(nxt)
    return frac, (a, b), [fixed.round_bits(x, prec) for x in xs]


@dataclass
class CertificateChecks:
    strict_descent: bool
    endpoint_minus_one: bool
    p_equals_half_n: bool
    partition_covers: bool
    reconstruction_matches: bool
    arc_exclusion: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def all_passed(self) -> bool:
        return all(self.as_dict().values())

    def failed_names(self) -> list:
        return [k for k, v in self.as_dict().items() if not v]


@dataclass(eq=False)
class ZetaCertificate:
    """Machine-checkable record of the descent-based primitivity argument."""

    n: int
    zeta: Zeta
    xs: tuple
    p: int
    checks: CertificateChecks
    tolerance: HPReal


def _reconstruction_ok(p: int, frac: int, xs: list, pw: list,
                       rootset: RootSet, tol: HPReal) -> bool:
    """Each x_k must equal Re(zeta^k) within tol, and zeta^0..zeta^p, then
    conj(zeta^(p-1))..conj(zeta^1), must match entries 0..n - 1 of the
    solved roots in the powers order one-to-one within tol.  Each entry is
    read as an exact integer pair (:func:`unityroot.solver.unity_pair`),
    from the roots the set holds, and compared on integers at the finer of
    its scale and frac, so no root is converted.  A root set of other than
    n = 2p roots fails."""
    if 2 * p != rootset.n:
        return False
    t = fixed.to_fixed(tol, frac)
    if any(abs(x - re) > t for x, (re, _) in zip(xs, pw)):
        return False
    candidates = pw + [(re, -im) for re, im in reversed(pw[1:p])]
    t2 = t * t
    try:
        for k, (cr, ci) in enumerate(candidates):
            fz, (zr, zi) = unity_pair(rootset, k)
            dr, di, bound = cr - zr, ci - zi, t2
            if fz != frac:  # compare at the finer of the two units
                up, down = max(fz - frac, 0), max(frac - fz, 0)
                dr = (cr << up) - (zr << down)
                di = (ci << up) - (zi << down)
                bound = t2 << 2 * up
            if dr * dr + di * di > bound:
                return False
    except InvalidN:  # a set of other than n roots
        return False
    return True


def _arc_exclusion_ok(n: int, frac: int, xs: list, pw: list) -> bool:
    """Proof that w = pw[1] lies next to omega = e^(2 pi i/n), so that no
    n-th root of unity other than omega and its conjugate lies on the outer
    arcs, the open arcs from 1 to them.  Everything is decided on integers
    in units u = 2**-frac: xs are the x_k, pw the powers P_0..P_p of
    :func:`unityroot.fixed.powers`, and p = n/2.  A short, long or otherwise
    malformed xs fails the proof; it never raises.

    (0) Premises, checked: 2p = n >= 4, one x_k per power, and
    d = |a^2 + b^2 - 1| <= 1/(2n).  Then |w| >= 1/2, and for k <= p,
    |w|^k <= (1 + d)^(k/2) <= 1/(1 - nd/4) <= 8/7, and
    |w|^(n-1) >= (1 - d)^((n-1)/2) >= 1 - nd/2 >= 3/4 (Bernoulli).  By the
    error bound of :func:`unityroot.fixed.powers`, P_k is within
    e_k <= sqrt(2) (8/7) k u < 2 k u of w^k.

    (1) The alpha-theorem (Smale 1986; Blum, Cucker, Shub & Smale 1998,
    ch. 8): there is a universal constant alpha_0 (about 0.1307 in Smale's
    paper, (13 - 3 sqrt(17))/4 ~ 0.1577 in the book) such that
    alpha(f, w) = beta gamma < alpha_0 implies that Newton's method from w
    converges to a zero omega of f with |w - omega| <= 2 beta, where
    beta = |f(w) / f'(w)| and
    gamma = sup_(k>=2) |f^(k)(w) / (k! f'(w))|^(1/(k-1)).
    The check asks for alpha < 2**-6 ~ 0.0156, far below either value.
    For f = z^n - 1, f^(k)(w) / (k! f'(w)) = C(n, k) w^(1-k) / n and
    C(n, k)/n <= (n-1)^(k-1)/k! <= ((n-1)/2)^(k-1), so
    gamma <= (n-1)/(2|w|) <= n - 1.  As w^n - P_p^2 = (w^p - P_p)(w^p + P_p),
    |w^n - 1| <= |P_p^2 - 1| + 3nu =: R (nu <= 1/2 holds for every
    n < 2**95), and beta <= R / (n (3/4)) <= B u with B = ceil(4R / (3nu)).
    The check asks for 2**6 B (n - 1) u < 1; then omega^n = 1 and
    |w - omega| <= 2Bu.

    (2) Enclosures.  Write w = omega (1 + delta), so
    |delta| = |w - omega| <= rho := 2Bu, and k rho <= nBu < 2**-5 for k <= p
    by (1); hence (1 + rho)^k <= e^(1/32) < 32/31 and
    |w^k - omega^k| <= (1 + rho)^k - 1 <= (32/31) k rho.  Expand
    (1 + delta)^k = 1 + k delta + R_k with
    |R_k| <= e^(k rho) - 1 - k rho <= (k rho)^2, and split delta into its
    radial part Re delta and its tangential part Im delta:

        Re(w^k) - Re(omega^k) = k (Re(omega^k) Re delta
                                   - Im(omega^k) Im delta) + Re(omega^k R_k).

    The radial part comes from the exact |w|^2 = |1 + delta|^2
    = 1 + 2 Re delta + |delta|^2: Re delta = s/2 - |delta|^2/2 with
    s = |w|^2 - 1 = N u^2 and N = a^2 + b^2 - 2^(2 frac) the exact signed
    integer (a, b in units u).  The descent turns on the unit circle, while
    P_k has modulus about |w|^k ~ 1 + k s/2, so x_k - Re P_k carries the
    radial drift -k Re(P_k) s/2 and Re(w^k) - Re(omega^k) the drift
    k Re(omega^k) s/2: they cancel to first order, and the enclosure keeps
    their sum with its sign,

        S_k := (x_k - Re P_k) + k Re(P_k) s/2,

    where adding their absolute values charged twice the drift (at
    (n, precision) = (8192, 32), 2**-20.7 against a last gap of 2**-21.7).
    Writing Re(omega^k) = Re(P_k) + (Re(omega^k) - Re(P_k)),

        x_k - Re(omega^k) = S_k + (Re P_k - Re w^k)
                            + k (Re(omega^k) - Re P_k) s/2
                            - k Re(omega^k) |delta|^2/2
                            - k Im(omega^k) Im delta + Re(omega^k R_k),

    and with e_k < 2ku from (0), |omega^k| = 1,
    |Re(omega^k) - Re P_k| <= e_k + (32/31) k rho and
    |Im(omega^k)| <= |Im P_k| + e_k + (32/31) k rho, the terms after S_k
    are bounded in four groups:

    - (1 + k rho) e_k < (33/32)(1.62 k u) < 2ku, as e_k <= sqrt(2) (8/7) k u;
    - the tangential weight k rho |Im P_k| = 2kB |Im P_k| u;
    - the rho^2 terms, (1/2 + 32/31 + 1) k^2 rho^2 < 3 k^2 rho^2
      = 12 k^2 B^2 u^2;
    - the second-order rest (k |s|/2)(e_k + (32/31) k rho)
      < (k |N| u^2/2)(2 + (64/31) B) k u <= k^2 |N| (2B + 1) u^3.

    So for k <= p, |Re(omega^k) - x_k| <= E_k with

        E_k := |S_k| + 2ku + 2kB |Im P_k| u
               + k^2 (12 B^2 u^2 + |N| (2B + 1) u^3),

    each term rounded up to units of u, the two in k^2 as one: S_k lies in
    [v, v + 1) for the integer v = x_k - Re P_k
    + floor(k Re(P_k) N / 2^(2 frac + 1)) (in units u), so
    |S_k| < |v| + 1.  The rest is tiny beside the other terms: N u^2 is
    about 2**-precision for a rounded zeta, and at most 1/(2n) by (0).
    Near k = p the drift k delta is almost tangential, and its weight
    |Im P_k| is small.

    (3) If every gap x_k - x_(k+1) exceeds E_k + E_(k+1) and Im w > 2Bu,
    the real parts Re(omega^0) > ... > Re(omega^p) strictly decrease and
    Im omega > 0.  The p + 1 roots omega^k then have p + 1 distinct real
    parts, and the n-th roots of unity have exactly p + 1 real parts
    cos(2 pi m/n), m = 0..p, so Re(omega^k) = cos(2 pi k/n) for every k.
    With Im omega > 0 that is omega = e^(2 pi i/n).  A non-primitive w, or
    one whose own root lies further round the circle, turns back before
    step p and fails a gap.
    """
    p = len(pw) - 1
    if p < 2 or 2 * p != n or len(xs) != p + 1:
        return False
    one = 1 << frac
    ar, ai = pw[1]
    if 2 * n * abs(ar * ar + ai * ai - (one << frac)) > one << frac:
        return False
    pr, pi = pw[p]
    # |P_p^2 - 1|^2 in units of u^4, then |P_p^2 - 1| rounded up to units of u
    q = (pr * pr - pi * pi - (one << frac)) ** 2 + (2 * pr * pi) ** 2
    r = math.isqrt(q)
    if r * r < q:
        r += 1
    beta = -(-4 * (-(-r >> frac) + 3 * n) // (3 * n))
    if (beta * (n - 1)) << _ALPHA_EXP >= one or ai <= 2 * beta:
        return False
    signed = ar * ar + ai * ai - (one << frac)
    # the k^2 terms over k^2, in units u^3
    quad = (12 * beta * beta << frac) + abs(signed) * (2 * beta + 1)
    enc = [abs(x - re + (k * re * signed >> 2 * frac + 1)) + 1 + 2 * k
           + -(-2 * k * beta * abs(im) >> frac) + -(-k * k * quad >> 2 * frac)
           for k, (x, (re, im)) in enumerate(zip(xs, pw))]
    return all(xs[k] - xs[k + 1] > enc[k] + enc[k + 1] for k in range(p))


def build_certificate(zeta: Zeta, rootset: RootSet) -> ZetaCertificate:
    """Run the descent and assemble all six checks.

    The first four read the descent alone.  The last two share one table of
    fixed-point powers of zeta: ``reconstruction_matches`` compares it with
    the solved roots in one pass, and ``arc_exclusion`` is a proof, not a
    sample: Smale's alpha-test places an exact n-th root of unity omega
    next to zeta, and the descent's gaps, wider than the enclosures of
    Re(omega^k), force omega = e^(2 pi i/n) (Smale 1986; Blum, Cucker, Shub
    & Smale 1998, ch. 8; derivation in ``_arc_exclusion_ok``).

    Raises CertificateFailure (carrying the completed certificate) if any
    check fails; descent-level failures (NonDescent, StepLimit) propagate.
    """
    if zeta.n < DESCENT_MIN_N or zeta.n % 2:
        raise InvalidN(f"certificates require an even n >= 6, got {zeta.n}")
    if not rootset.is_unity or rootset.n != zeta.n:
        raise InvalidN("certificate root set must be solve_unity(n) for the same n")
    prec = zeta.precision
    tol = contract_tol(prec)
    frac, w, scaled = _descent(zeta)
    xs, p = [fixed.to_hpreal(x, frac, prec) for x in scaled], len(scaled) - 1
    one = HPReal.one(prec)
    pw = fixed.powers(w, zeta.n // 2, frac)
    strict = all(b < a for a, b in zip(scaled, scaled[1:]))
    endpoint = abs(xs[-1] + one) <= tol
    half = 2 * p == zeta.n
    # strictly decreasing steps from exactly 1 down to -1 tile [-1, 1]
    partition = strict and xs[0] == one and endpoint
    recon = _reconstruction_ok(p, frac, scaled, pw, rootset, tol)
    exclusion = _arc_exclusion_ok(zeta.n, frac, scaled, pw)
    checks = CertificateChecks(
        strict_descent=strict,
        endpoint_minus_one=endpoint,
        p_equals_half_n=half,
        partition_covers=partition,
        reconstruction_matches=recon,
        arc_exclusion=exclusion,
    )
    cert = ZetaCertificate(n=zeta.n, zeta=zeta, xs=tuple(xs), p=p,
                           checks=checks, tolerance=tol)
    if not checks.all_passed:
        raise CertificateFailure(cert, checks.failed_names())
    return cert
