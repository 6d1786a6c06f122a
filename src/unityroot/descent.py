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
from .solver import RootSet, contract_tol, unity_powers
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
    return [fixed.to_hpreal(x, frac, prec) for x in xs], len(xs) - 1


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


def _scaled_powers(zeta: Zeta, xs, m: int) -> tuple:
    """(frac, X, P): frac = precision + 64, raised until a, b and every x_k
    convert exactly; X the integers x_k * 2**frac; P = [P_0, ..., P_m], the
    powers of w = a + ib from :func:`unityroot.fixed.powers`."""
    frac, (a, b, *scaled) = fixed.lift((zeta.a, zeta.b, *xs),
                                       fixed.frac_bits(zeta.precision))
    return frac, scaled, fixed.powers((a, b), m, frac)


def _reconstruction_ok(p: int, frac: int, xs: list, pw: list,
                       rootset: RootSet, tol: HPReal) -> bool:
    """Each x_k must equal Re(zeta^k) within tol, and zeta^0..zeta^p, then
    conj(zeta^(p-1))..conj(zeta^1), must match the solved roots read as
    powers (:func:`unityroot.solver.unity_powers`) one-to-one within tol.
    A root set of other than n = 2p roots fails.  One pass over both lists;
    root components enter truncated to units of 2**-frac."""
    if 2 * p != rootset.n or len(rootset.roots) != rootset.n:
        return False
    t = fixed.to_fixed(tol, frac)
    if any(abs(x - re) > t for x, (re, _) in zip(xs, pw)):
        return False
    candidates = pw + [(re, -im) for re, im in reversed(pw[1:p])]
    for (cr, ci), z in zip(candidates, unity_powers(rootset)):
        dr = cr - fixed.to_fixed(z.re, frac)
        di = ci - fixed.to_fixed(z.im, frac)
        if dr * dr + di * di > t * t:
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
    by (1); hence (1 + rho)^k <= e^(1/32) < 32/31.  Expand
    (1 + delta)^k = 1 + k delta + R_k with
    |R_k| <= e^(k rho) - 1 - k rho <= (k rho)^2, and split delta into its
    radial part Re delta and its tangential part Im delta:

        Re(w^k) - Re(omega^k) = k (Re(omega^k) Re delta
                                   - Im(omega^k) Im delta) + Re(omega^k R_k).

    The radial part comes from the exact |w|^2 = |1 + delta|^2
    = 1 + 2 Re delta + |delta|^2, so |Re delta| <= (| |w|^2 - 1 | + rho^2)/2,
    where | |w|^2 - 1 | = N u^2 with the exact integer
    N = |a^2 + b^2 - 2^(2 frac)| (a, b in units u).  The tangential part is
    weighted by |Im(omega^k)| <= |Im P_k| + e_k + |w^k - omega^k|, and
    |w^k - omega^k| <= (1 + rho)^k - 1 <= (32/31) k rho.  With e_k < 2ku
    from (0), (1 + k rho) e_k < (33/32)(1.62 k u) < 2ku, and the rho^2
    terms sum to at most (1/2 + 32/31 + 1) k^2 rho^2 < 3 k^2 rho^2.  So for
    k <= p, |Re(omega^k) - x_k| <= |x_k - Re P_k| + e_k
    + |Re(w^k) - Re(omega^k)| <= E_k with

        E_k := |x_k - Re P_k| + 2ku + k N u^2 / 2 + 2kB |Im P_k| u
               + 12 k^2 B^2 u^2,

    each term after the first rounded up to units of u.  Near k = p the
    drift k delta is almost tangential, and its weight |Im P_k| is small.

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
    radial = abs(ar * ar + ai * ai - (one << frac))
    enc = [abs(x - re) + 2 * k + -(-k * radial >> frac + 1)
           + -(-2 * k * beta * abs(im) >> frac)
           + -(-12 * k * k * beta * beta >> frac)
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
    xs, p = descent_sequence(zeta)
    one = HPReal.one(prec)
    frac, scaled, pw = _scaled_powers(zeta, xs, zeta.n // 2)
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
