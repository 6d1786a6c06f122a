"""Real-part rotation maps and the primitivity certificate.

For a point z = x + i*sqrt(1-x^2) on the upper unit semicircle, multiplying
by zeta = a + ib rotates it one step; the real part moves by

    advance_re(x)  = a*x - b*sqrt(1 - x^2)      on [-a, 1]  ->  [-1, a]
    retreat_re(y)  = a*y + b*sqrt(1 - y^2)      on [-1, a]  ->  [-a, 1]

which are strictly increasing mutual inverses.  Iterating advance_re from
x_0 = 1 produces the strictly decreasing descent sequence x_k = Re(zeta^k),
which must land exactly on -1 after p = n/2 steps; the certificate records
that together with the interval partition, the reconstruction of all n roots
from powers and conjugates, and a sampled check that the outer arcs contain
no further roots.

sqrt(1 - x^2) is evaluated as sqrt((1-x)*(1+x)) to avoid cancellation near
the endpoints.

The sampled arc check needs no square root: on the unit circle
|z^n - 1|^2 = 2 (1 - Re z^n) = 2 (1 - T_n(x)) with T_n the Chebyshev
polynomial, which it evaluates on exact fixed-point integers by real-part
doubling (T_2k = 2 T_k^2 - 1, T_2k+1 = 2 T_k T_k+1 - x) within
4**(n.bit_length() + 1) units of 2**-(precision + 64); the derivation is in
``_arc_exclusion_ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import fixed
from .errors import (CertificateFailure, DomainViolation, InvalidN,
                     NonDescent, StepLimit)
from .hpreal import HPReal
from .solver import RootSet, contract_tol
from .zeta import Zeta

# margin for the sampled arc exclusion, calibrated so the thousand-point
# grids stay above it for every even n: the grid value closest to a root is
# ~ pi/1001 at the zeta-adjacent end (see the derivation in the tests)
_EXCLUSION_FLOOR_EXP = -9

_GRID_POINTS = 1000


def _semicircle_height(x: HPReal) -> HPReal:
    one = HPReal.one(x.precision)
    return ((one - x) * (one + x)).sqrt()


def advance_re(x: HPReal, zeta: Zeta) -> HPReal:
    """a*x - b*sqrt(1-x^2) with clamping on [-a, 1].

    Inputs beyond the domain by more than 2**(-precision/2) raise
    DomainViolation; within that band they are clamped to the boundary, which
    is sound because the map extends continuously to the closed interval.
    """
    tol = contract_tol(zeta.precision)
    one = HPReal.one(zeta.precision)
    lo = -zeta.a
    if x > one + tol or x < lo - tol:
        raise DomainViolation(f"advance_re argument {x.to_float()} outside [-a, 1]")
    if x > one:
        x = one
    elif x < lo:
        x = lo
    return zeta.a * x - zeta.b * _semicircle_height(x)


def retreat_re(y: HPReal, zeta: Zeta) -> HPReal:
    """The inverse map a*y + b*sqrt(1-y^2) with clamping on [-1, a]."""
    tol = contract_tol(zeta.precision)
    one = HPReal.one(zeta.precision)
    if y > zeta.a + tol or y < -one - tol:
        raise DomainViolation(f"retreat_re argument {y.to_float()} outside [-1, a]")
    if y > zeta.a:
        y = zeta.a
    elif y < -one:
        y = -one
    return zeta.a * y + zeta.b * _semicircle_height(y)


def advance_re_derivative(x: HPReal, zeta: Zeta) -> HPReal:
    """a + b*x/sqrt(1-x^2), strictly positive on the open domain (-a, 1).

    Arguments at or past the singular guard |x| > 1 - 2**(-precision/4)
    are rejected.
    """
    prec = zeta.precision
    guard = HPReal.one(prec) - HPReal.pow2(-(prec // 4), prec)
    if not (-zeta.a < x < HPReal.one(prec)) or abs(x) > guard:
        raise DomainViolation(
            f"derivative argument {x.to_float()} outside the open domain")
    return zeta.a + zeta.b * x / _semicircle_height(x)


def descent_sequence(zeta: Zeta, max_steps: int | None = None):
    """Iterate advance_re from x_0 = 1 until the iterate leaves [-a, 1].

    Returns (xs, p) where xs = [x_0, ..., x_p] and x_p is the first element
    below -a by more than the clamping tolerance (the boundary value -a
    itself is still in the domain and takes one more step, which is what
    carries the sequence onto -1).
    """
    if zeta.n < 6 or zeta.n % 2:
        raise InvalidN(f"descent requires an even n >= 6, got {zeta.n}")
    if max_steps is None:
        max_steps = zeta.n
    if max_steps < zeta.n:
        raise InvalidN("max_steps must be at least n")
    tol = contract_tol(zeta.precision)
    exit_bound = -zeta.a - tol
    xs = [HPReal.one(zeta.precision)]
    while True:
        cur = xs[-1]
        if cur < exit_bound:
            break
        if len(xs) > max_steps:
            raise StepLimit(f"no exit from [-a, 1] within {max_steps} steps")
        nxt = advance_re(cur, zeta)
        if not (nxt < cur):
            raise NonDescent(
                f"x_{len(xs)} = {nxt.to_float()} did not decrease")
        xs.append(nxt)
    return xs, len(xs) - 1


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


def _reconstruction_ok(zeta: Zeta, xs, p: int, rootset: RootSet, tol: HPReal) -> bool:
    """The multiset {zeta^0..zeta^p, conj(zeta^1)..conj(zeta^(p-1))} must
    match the solved roots one-to-one within tol, and each x_k must equal
    Re(zeta^k) within tol."""
    w = zeta.as_complex()
    powers = [w.pow(k) for k in range(p + 1)]
    for k in range(min(p, len(xs) - 1) + 1):
        if abs(xs[k] - powers[k].re) > tol:
            return False
    candidates = powers + [powers[k].conj() for k in range(1, p)]
    if len(candidates) != rootset.n:
        return False
    tol2 = tol * tol
    used = [False] * rootset.n
    for cand in candidates:
        hit = None
        for idx, root in enumerate(rootset.roots):
            if not used[idx] and (cand - root).abs2() <= tol2:
                hit = idx
                break
        if hit is None:
            return False
        used[hit] = True
    return all(used)


def _gap2_scaled(x: HPReal, n: int, frac: int) -> int:
    """|z^n - 1|^2 = 2 (1 - T_n(x)) for z = x + i*sqrt(1-x^2), times 2**frac,
    by the fixed-point doubling ladder; within 4**(n.bit_length() + 1) units
    of the exact value for |x| <= 1 (derived in :func:`_arc_exclusion_ok`)."""
    fx = fixed.to_fixed(x, frac)
    unit = 1 << frac
    c0, c1 = unit, fx  # (T_k, T_k+1) from k = 0, one step per bit of n
    for bit in bin(n)[2:]:
        if bit == "1":
            c0, c1 = (c0 * c1 >> frac - 1) - fx, (c1 * c1 >> frac - 1) - unit
        else:
            c0, c1 = (c0 * c0 >> frac - 1) - unit, (c0 * c1 >> frac - 1) - fx
    return 2 * (unit - c0)


def _arc_exclusion_ok(zeta: Zeta, n: int) -> bool:
    """Sampled check that the open arcs over (a, 1 - 2**-20) and (-1, -a)
    contain no n-th root of unity: every grid point must keep |z^n - 1|
    above the calibrated floor.  A sampled check, not a proof.

    The grid points x are accumulated in ``HPReal``.  For z = x + i*sqrt(1-x^2)
    on the unit circle, |z^n - 1|^2 = 2 - 2 Re(z^n) = 2 (1 - T_n(x)) exactly,
    with T_n the Chebyshev polynomial, so no square root or power of z is
    needed.  T_n(x) is evaluated on integers scaled by 2**F, F = precision +
    64 (the conversion of :mod:`unityroot.fixed`), by the ladder over the
    bits of n (most significant first) that carries the pair (T_k, T_k+1)
    to (T_2k, T_2k+1) or (T_2k+1, T_2k+2) with

        T_2k = 2 T_k^2 - 1,    T_2k+1 = 2 T_k T_k+1 - x.

    Error bound, with u = 2**-F: x enters with error below u (truncated
    for |x| < 2**-64, exact otherwise), each doubled product is floored with
    error below u, and as |T_k| <= 1 on [-1, 1] a step turns pair errors of
    at most e into at most 4e + 2e^2 + 2u.  While e <= 2**-34 the e^2 term
    adds a factor below 1 + 2**-33 per step, so after the L = n.bit_length()
    steps e < 2 * 4**L * u, and 2 (1 - T_n(x)) is known to within
    4**(L + 1) * u (2**-172 at n = 298 and precision 128).  The premise
    e <= 2**-34 holds for every n < 2**30 at every precision >= 32.  A point
    fails when its value is at most floor^2 plus that bound, so every point
    that passes is above the floor in exact arithmetic.
    """
    prec = zeta.precision
    frac = fixed.frac_bits(prec)
    limit = (1 << (frac + 2 * _EXCLUSION_FLOOR_EXP)) + (1 << 2 * (n.bit_length() + 1))
    one = HPReal.one(prec)
    intervals = (
        (zeta.a, one - HPReal.pow2(-20, prec)),
        (-one, -zeta.a),
    )
    for lo, hi in intervals:
        step = (hi - lo) / (_GRID_POINTS + 1)
        x = lo
        for _ in range(_GRID_POINTS):
            x = x + step
            if _gap2_scaled(x, n, frac) <= limit:
                return False
    return True


def build_certificate(zeta: Zeta, rootset: RootSet) -> ZetaCertificate:
    """Run the descent and assemble all six checks.

    Raises CertificateFailure (carrying the completed certificate) if any
    check fails; descent-level failures (NonDescent, StepLimit) propagate.
    """
    if zeta.n < 6 or zeta.n % 2:
        raise InvalidN(f"certificates require an even n >= 6, got {zeta.n}")
    if not rootset.is_unity or rootset.n != zeta.n:
        raise InvalidN("certificate root set must be solve_unity(n) for the same n")
    prec = zeta.precision
    tol = contract_tol(prec)
    xs, p = descent_sequence(zeta, max_steps=zeta.n)
    one = HPReal.one(prec)
    strict = all(xs[i + 1] < xs[i] for i in range(len(xs) - 1))
    endpoint = abs(xs[-1] + one) <= tol
    half = 2 * p == zeta.n
    # strictly decreasing steps from exactly 1 down to -1 tile [-1, 1]
    partition = strict and xs[0] == one and endpoint
    recon = _reconstruction_ok(zeta, xs, p, rootset, tol)
    exclusion = _arc_exclusion_ok(zeta, zeta.n)
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
