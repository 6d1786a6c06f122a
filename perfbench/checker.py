"""Output checks that share no code with the library.

References come from mpmath at 256 bits, exact integers and numpy.fft.  The
library's values enter only as data: CLI payloads as decimal strings, and
library objects through the ``sign``/``mantissa``/``exponent`` fields that
``HPReal`` documents.  Every check returns ``(ok, error)`` where ``error`` is
the relative error against the reference (``None`` when the output is exact
data such as an order), so the caller can report accuracy in bits.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.prec = 256

ZETA_TOL = MP.ldexp(1, -100)      # a, b and r against cos/sin(2*pi/N)
DESCENT_TOL = MP.ldexp(1, -64)    # x_k against cos(2*pi*k/basis)
RESIDUAL_TOL = MP.ldexp(1, -64)   # |z^N - c| <= 2^-64 |c|
DFT_TOL = MP.ldexp(1, -100)       # forward and round trip, relative to the input
NUMPY_TOL = 2.0 ** -40            # float64 reference, relative to sum |x|


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def hp_real(x) -> mpmath.mpf:
    """Exact value of an HPReal from its documented fields."""
    return MP.ldexp(MP.mpf(x.sign * x.mantissa), x.exponent)


def hp_complex(z) -> mpmath.mpc:
    return MP.mpc(hp_real(z.re), hp_real(z.im))


def dyadic(num: int, exp: int) -> mpmath.mpf:
    return MP.ldexp(MP.mpf(num), exp)


def _dec(text) -> mpmath.mpf:
    if not isinstance(text, str):
        raise ValueError(f"expected a decimal string, got {text!r}")
    return MP.mpf(text)


def _payload_complex(obj) -> mpmath.mpc:
    return MP.mpc(_dec(obj["re"]), _dec(obj["im"]))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def check_roots(c: mpmath.mpc, n: int, roots: list) -> tuple:
    """All n roots of z^n = c: each residual within 2^-64 |c|, and the set a
    bijection onto the reference roots |c|^(1/n) exp(i(arg c + 2 pi k)/n).
    The error is the worst distance to the matched reference root, relative
    to |c|^(1/n)."""
    if len(roots) != n:
        return False, None
    mag = abs(c)
    theta = MP.arg(c)
    radius = MP.root(mag, n)
    two_pi = 2 * MP.pi
    seen = set()
    worst = MP.mpf(0)
    ok = True
    for z in roots:
        if abs(z ** n - c) > RESIDUAL_TOL * mag:
            ok = False
        k = int(MP.nint((MP.arg(z) * n - theta) / two_pi)) % n
        seen.add(k)
        ref = radius * MP.expj((theta + two_pi * k) / n)
        worst = max(worst, abs(z - ref))
    return ok and len(seen) == n, worst / radius


def check_unity_payload(n: int, payload: dict) -> tuple:
    """``roots --n N``: all n-th roots of unity."""
    if payload.get("n") != n:
        return False, None
    return check_roots(MP.mpc(1), n, [_payload_complex(z) for z in payload["roots"]])


# ---------------------------------------------------------------------------
# zeta and the certificate
# ---------------------------------------------------------------------------


def zeta_error(n: int, a, b, r) -> mpmath.mpf:
    angle = 2 * MP.pi / n
    return max(abs(a - MP.cos(angle)), abs(b - MP.sin(angle)),
               abs(r - 2 * MP.sin(MP.pi / n)))


def check_zeta_payload(n: int, payload: dict) -> tuple:
    """``zeta --n N``: a + ib = exp(2 pi i/N) and r = |zeta - 1|."""
    if payload.get("n") != n:
        return False, None
    err = zeta_error(n, _dec(payload["a"]), _dec(payload["b"]), _dec(payload["r"]))
    return err <= ZETA_TOL, err


def check_verify_payload(n: int, payload: dict) -> tuple:
    """``verify --n N``: zeta as above, every reported check true, and the
    descent sequence x_k = cos(2 pi k / basis) for k = 0..basis/2, where the
    certificate is built at basis = N (even N) or 2N (odd N)."""
    ok, err = check_zeta_payload(n, payload)
    if payload.get("passed") is not True or not all(payload["checks"].values()):
        ok = False
    cert = payload.get("certificate")
    if n in (1, 2, 4):
        return ok and cert is None, err
    basis = n if n % 2 == 0 else 2 * n
    xs = cert["xs"] if cert else []
    if not cert or cert["n"] != basis or cert["p"] != basis // 2 \
            or len(xs) != basis // 2 + 1 or not all(cert["checks"].values()):
        return False, err
    step = 2 * MP.pi / basis
    for k, x in enumerate(xs):
        if abs(_dec(x) - MP.cos(step * k)) > DESCENT_TOL:
            return False, err
    return ok, err


# ---------------------------------------------------------------------------
# order and DFT
# ---------------------------------------------------------------------------


def check_order(n: int, m: int, order: int, is_primitive: bool) -> tuple:
    """The order of zeta(n)^m is n / gcd(m, n), exactly."""
    g = math.gcd(m, n)
    return order == n // g and is_primitive == (g == 1), None


def _reference_dft(xs: list) -> list:
    """Forward DFT in mpmath: radix-2 recursion for power-of-two lengths,
    the O(n^2) definition otherwise."""
    n = len(xs)
    if n == 1:
        return list(xs)
    if n % 2:
        tw = [MP.expjpi(MP.mpf(-2 * k) / n) for k in range(n)]
        return [MP.fsum(xs[k] * tw[(j * k) % n] for k in range(n)) for j in range(n)]
    even, odd = _reference_dft(xs[0::2]), _reference_dft(xs[1::2])
    out = [None] * n
    for k in range(n // 2):
        t = MP.expjpi(MP.mpf(-2 * k) / n) * odd[k]
        out[k], out[k + n // 2] = even[k] + t, even[k] - t
    return out


def check_dft(xs: list, forward: list, back: list) -> tuple:
    """Forward transform against numpy.fft (float64, coarse) and an mpmath
    reference (fine); the inverse must return the input.  ``xs`` are
    the exact inputs, ``forward`` and ``back`` the library's outputs, all as
    mpc.  The error is the worst of the forward error relative to sum |x|
    and the round-trip error relative to max |x|."""
    n = len(xs)
    if len(forward) != n or len(back) != n:
        return False, None
    l1 = MP.fsum(abs(x) for x in xs)
    top = max(abs(x) for x in xs)
    approx = np.fft.fft(np.array([complex(x) for x in xs]))
    coarse = max(abs(complex(f) - a) for f, a in zip(forward, approx))
    ref = _reference_dft(xs)
    fine = max(abs(f - r) for f, r in zip(forward, ref)) / l1
    trip = max(abs(b - x) for b, x in zip(back, xs)) / top
    ok = coarse <= NUMPY_TOL * float(l1) and fine <= DFT_TOL and trip <= DFT_TOL
    return ok, max(fine, trip)


def accuracy_bits(err) -> float | None:
    """-log2 of a relative error; 256 (the reference precision) when exact."""
    if err is None:
        return None
    if err == 0:
        return float(MP.prec)
    return float(-MP.log(err, 2))
