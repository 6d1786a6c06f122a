"""Twiddle tables and a reference discrete Fourier transform.

The forward kernel is conj(zeta)^k (the conventional negative-frequency
sign); the inverse kernel is zeta^k.  A table is the solver's root set of
z^n = 1 read as powers (:func:`unityroot.solver.unity_powers`): each entry
is a power of the refined root formed in the fixed-point kernel and
rounded once, so the drift of repeated multiplication (Van Loan 1992,
section 1.4) stays below the last bit kept, and 1, -1 and +-i are exact.
The set is closed under conjugation bit for bit, so the forward kernel
conj(zeta)^k is entry -k mod n of the same table.  The transform itself is
the O(n^2) definition; it exists to exercise the constructed root, not to
be fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidN
from .hpcomplex import HPComplex
from .solver import solve_unity, unity_powers

_table_cache: dict = {}


@dataclass(eq=False)
class TwiddleTable:
    n: int
    inverse: tuple
    precision: int


def twiddle_table(n: int, precision: int = 128) -> TwiddleTable:
    """zeta^0..zeta^(n-1) from solve_unity(n, precision)."""
    key = (n, precision)
    if key not in _table_cache:
        _table_cache[key] = TwiddleTable(
            n=n, inverse=unity_powers(solve_unity(n, precision)),
            precision=precision)
    return _table_cache[key]


def _transform(values: list, precision: int | None, sign: int) -> list:
    """out[j] = sum_k values[k] * zeta^(sign*j*k)."""
    if not values:
        raise InvalidN("transform input must be non-empty")
    n = len(values)
    if precision is None:
        precision = max(v.precision for v in values)
    w = twiddle_table(n, precision).inverse
    out = []
    for j in range(n):
        acc = HPComplex.zero(precision)
        for k in range(n):
            acc = acc + values[k] * w[(sign * j * k) % n]
        out.append(acc)
    return out


def dft_forward(values: list, precision: int | None = None) -> list:
    """X[j] = sum_k x[k] * conj(zeta)^(j*k)."""
    return _transform(values, precision, -1)


def dft_inverse(values: list, precision: int | None = None) -> list:
    """x[k] = (1/n) sum_j X[j] * zeta^(j*k)."""
    return [v / len(values) for v in _transform(values, precision, 1)]
