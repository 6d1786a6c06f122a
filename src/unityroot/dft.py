"""Twiddle tables and a reference discrete Fourier transform.

The forward kernel is conj(zeta)^k (the conventional negative-frequency
sign); the inverse kernel is zeta^k.  A table is built in the fixed-point
kernel (:mod:`unityroot.fixed`): the rounded zeta is refined by one Newton
step on z^n = 1, its powers are formed by iterated multiplication with 64
guard bits, and each component is rounded once, so the drift of repeated
multiplication (Van Loan 1992, section 1.4) stays below the last bit kept.
The transform itself is the O(n^2) definition; it exists to exercise the
constructed root, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixed
from .errors import InvalidN
from .hpcomplex import HPComplex
from .zeta import construct_zeta

_table_cache: dict = {}


@dataclass(eq=False)
class TwiddleTable:
    n: int
    forward: tuple
    inverse: tuple
    precision: int


def twiddle_table(n: int, precision: int = 128) -> TwiddleTable:
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    key = (n, precision)
    if key in _table_cache:
        return _table_cache[key]
    zeta = construct_zeta(n, precision)
    frac, w = fixed.refine_unity(zeta.a, zeta.b, n, precision)
    inverse = tuple(HPComplex(fixed.to_hpreal(re, frac, precision),
                              fixed.to_hpreal(im, frac, precision))
                    for re, im in fixed.powers(w, n - 1, frac))
    forward = tuple(z.conj() for z in inverse)
    out = TwiddleTable(n=n, forward=forward, inverse=inverse,
                       precision=precision)
    _table_cache[key] = out
    return out


def _common_precision(values, precision):
    if precision is not None:
        return precision
    return max(v.precision for v in values)


def dft_forward(values: list, precision: int | None = None) -> list:
    """X[j] = sum_k x[k] * conj(zeta)^(j*k)."""
    if not values:
        raise InvalidN("transform input must be non-empty")
    n = len(values)
    prec = _common_precision(values, precision)
    table = twiddle_table(n, prec)
    out = []
    for j in range(n):
        acc = HPComplex.zero(prec)
        for k in range(n):
            acc = acc + values[k] * table.forward[(j * k) % n]
        out.append(acc)
    return out


def dft_inverse(values: list, precision: int | None = None) -> list:
    """x[k] = (1/n) sum_j X[j] * zeta^(j*k)."""
    if not values:
        raise InvalidN("transform input must be non-empty")
    n = len(values)
    prec = _common_precision(values, precision)
    table = twiddle_table(n, prec)
    out = []
    for k in range(n):
        acc = HPComplex.zero(prec)
        for j in range(n):
            acc = acc + values[j] * table.inverse[(j * k) % n]
        out.append(acc / n)
    return out
