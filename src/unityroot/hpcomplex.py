"""Complex arithmetic over :class:`HPReal` pairs.

Multiplication, conjugation, modulus and integer powers are the only
primitives the construction needs; division completes the field operations
(the DFT divides by n).  The solver's Newton stage runs on scaled integers in
:mod:`unityroot.fixed` instead.  The modulus uses the square root, nothing
else transcendental.

Products, norms and powers run on the integer mantissas directly
(:func:`_product`), with no intermediate ``HPReal`` objects.  Each partial
product is rounded as ``HPReal.__mul__`` rounds it and each sum as ``HPReal``
addition does, through the same raw helpers, so every result is bit-identical
to the composed ``HPComplex(x*u - y*v, x*v + y*u)``.
"""

from __future__ import annotations

from .hpreal import HPReal, add_raw, round_raw


def _product(xs, xm, xe, ys, ym, ye, us, um, ue, vs, vm, ve, prec):
    """(x + iy)(u + iv) on raw (sign, mantissa, exponent) components.

    Returns the six-tuple (re sign, mantissa, exponent, im sign, mantissa,
    exponent) at `prec` bits.  A zero component has mantissa 0, so its
    products round to the raw zero without a branch.
    """
    s1, m1, e1 = round_raw(xs * us, xm * um, xe + ue, prec)
    s2, m2, e2 = round_raw(ys * vs, ym * vm, ye + ve, prec)
    s3, m3, e3 = round_raw(xs * vs, xm * vm, xe + ve, prec)
    s4, m4, e4 = round_raw(ys * us, ym * um, ye + ue, prec)
    return (add_raw(s1, m1, e1, -s2, m2, e2, prec)
            + add_raw(s3, m3, e3, s4, m4, e4, prec))


def _square(xs, xm, xe, ys, ym, ye, prec):
    """_product of (x + iy) with itself.  Both halves of x*y + y*x round to
    the same prec-bit value, whose sum the addition doubles exactly, so the
    imaginary part is that value with its exponent raised by one."""
    s1, m1, e1 = round_raw(xs * xs, xm * xm, 2 * xe, prec)
    s2, m2, e2 = round_raw(ys * ys, ym * ym, 2 * ye, prec)
    s3, m3, e3 = round_raw(xs * ys, xm * ym, xe + ye, prec)
    return (add_raw(s1, m1, e1, -s2, m2, e2, prec)
            + ((s3, m3, e3 + 1) if s3 else (0, 0, 0)))


def _from_raw(t, prec: int) -> "HPComplex":
    out = object.__new__(HPComplex)
    out.re = HPReal._raw(t[0], t[1], t[2], prec)
    out.im = HPReal._raw(t[3], t[4], t[5], prec)
    return out


class HPComplex:
    """Immutable complex number with both components at one precision."""

    __slots__ = ("re", "im")

    def __init__(self, re: HPReal, im: HPReal):
        if re.precision != im.precision:
            prec = max(re.precision, im.precision)
            re = re.with_precision(prec)
            im = im.with_precision(prec)
        self.re = re
        self.im = im

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, precision: int = 128) -> "HPComplex":
        z = HPReal.zero(precision)
        return cls(z, z)

    @classmethod
    def one(cls, precision: int = 128) -> "HPComplex":
        return cls(HPReal.one(precision), HPReal.zero(precision))

    @classmethod
    def i(cls, precision: int = 128) -> "HPComplex":
        return cls(HPReal.zero(precision), HPReal.one(precision))

    @classmethod
    def from_int(cls, re: int, im: int = 0, precision: int = 128) -> "HPComplex":
        return cls(HPReal.from_int(re, precision), HPReal.from_int(im, precision))

    @classmethod
    def from_float(cls, value: complex, precision: int = 128) -> "HPComplex":
        """Exact dyadic embedding of a machine complex, then rounding; a
        non-finite part raises ValueError."""
        return cls(HPReal.from_float(value.real, precision),
                   HPReal.from_float(value.imag, precision))

    @property
    def precision(self) -> int:
        return self.re.precision

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "HPComplex") -> "HPComplex":
        return HPComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "HPComplex") -> "HPComplex":
        return HPComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "HPComplex":
        return HPComplex(-self.re, -self.im)

    def __mul__(self, other) -> "HPComplex":
        if isinstance(other, HPComplex):
            x, y, u, v = self.re, self.im, other.re, other.im
            prec = max(x.precision, u.precision)
            return _from_raw(_product(x.sign, x.mantissa, x.exponent,
                                      y.sign, y.mantissa, y.exponent,
                                      u.sign, u.mantissa, u.exponent,
                                      v.sign, v.mantissa, v.exponent, prec), prec)
        if isinstance(other, (HPReal, int)):
            return HPComplex(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "HPComplex":
        if isinstance(other, (HPReal, int)):
            return HPComplex(self.re / other, self.im / other)
        if not isinstance(other, HPComplex):
            return NotImplemented
        # z * conj(w) rounds x*u + y*v and y*u - x*v like the composed form
        num = self * other.conj()
        d = other.abs2()
        return HPComplex(num.re / d, num.im / d)

    def conj(self) -> "HPComplex":
        return HPComplex(self.re, -self.im)

    def abs2(self) -> HPReal:
        """|z|^2 without the square root, rounded as re*re + im*im."""
        x, y = self.re, self.im
        prec = x.precision
        s1, m1, e1 = round_raw(x.sign * x.sign, x.mantissa * x.mantissa,
                                2 * x.exponent, prec)
        s2, m2, e2 = round_raw(y.sign * y.sign, y.mantissa * y.mantissa,
                                2 * y.exponent, prec)
        s, m, e = add_raw(s1, m1, e1, s2, m2, e2, prec)
        return HPReal._raw(s, m, e, prec)

    def __abs__(self) -> HPReal:
        return self.abs2().sqrt()

    def pow(self, k: int) -> "HPComplex":
        """z**k for k >= 0 by binary exponentiation; z**0 == 1 exactly."""
        if k < 0:
            raise ValueError("negative powers are not defined here; use conj for inverses on the unit circle")
        prec = self.precision
        if k == 0:
            return HPComplex.one(prec)
        x, y = self.re, self.im
        base = (x.sign, x.mantissa, x.exponent, y.sign, y.mantissa, y.exponent)
        # the first factor of the product is base itself: 1 * base is exact
        result = None
        while True:
            if k & 1:
                result = base if result is None else _product(*result, *base, prec)
            k >>= 1
            if not k:
                return _from_raw(result, prec)
            base = _square(*base, prec)

    # -- comparisons and conversions ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HPComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = None

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def to_complex(self) -> complex:
        """Nearest machine complex; diagnostics only."""
        return complex(self.re.to_float(), self.im.to_float())

    def __repr__(self) -> str:
        return f"HPComplex({self.re.to_float():.17g}, {self.im.to_float():.17g})"
