"""Arbitrary-precision binary floating point built on Python integers.

A value is ``sign * mantissa * 2**exponent`` with the mantissa normalized to
exactly ``precision`` bits (top bit set).  Every operation rounds its exact
result to the working precision with round-half-to-even; the working
precision of a binary operation is the larger of the two operand precisions.
Only the four field operations and the square root exist here, all reducible
to integer arithmetic; there are deliberately no transcendental functions.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math

from .errors import DivisionByZero, InvalidPrecision, NegativeSqrt

MIN_PRECISION = 32

# from_decimal accepts a nonzero value only if its leading significant
# digit sits at 10**d with |d| <= DECIMAL_MAX_MAGNITUDE (or it rounds to
# what such a value rounds to), and with at most DECIMAL_MAX_MAGNITUDE +
# precision significant digits (trailing zeros dropped), more than decimal()
# writes in that range: it builds 10**|d| and the integer of its digits
# exactly, whose costs grow with both
DECIMAL_MAX_MAGNITUDE = 100000

# ---------------------------------------------------------------------------
# rounding core
# ---------------------------------------------------------------------------


def round_raw(sign: int, mant: int, exp: int, precision: int, sticky: bool = False):
    """Round a raw magnitude to `precision` bits, round-half-to-even.

    ``sticky`` flags discarded nonzero bits strictly below ``mant``; callers
    guarantee at least 4 guard bits are present whenever it is set, so jamming
    it into the low bit preserves the below/at/above-half distinction.
    """
    if mant == 0:
        return 0, 0, 0
    drop = mant.bit_length() - precision
    if drop <= 0:
        return sign, mant << -drop, exp + drop
    keep = mant >> drop
    rem = mant & ((1 << drop) - 1)
    if sticky:
        rem |= 1
    half = 1 << (drop - 1)
    if rem > half or (rem == half and keep & 1):
        keep += 1
        if keep.bit_length() > precision:
            keep >>= 1
            drop += 1
    return sign, keep, exp + drop


def _quotient(sign: int, num: int, den: int, exp: int, precision: int):
    """sign * num/den * 2**exp for num, den > 0, correctly rounded: the
    quotient keeps precision + 4 bits or more and the remainder becomes the
    sticky bit."""
    shift = precision + 4 - num.bit_length() + den.bit_length()
    if shift >= 0:
        q, r = divmod(num << shift, den)
    else:
        q, r = divmod(num, den << -shift)
    return round_raw(sign, q, exp - shift, precision, sticky=r != 0)


# ---------------------------------------------------------------------------
# decimal digits of integers of any size
# ---------------------------------------------------------------------------

# str() and int() on an integer of more than 4300 decimal digits raise
# ValueError (the interpreter's default limit); below these sizes they are
# called directly, above them the digits are split in halves
_STR_BITS = 14000  # 14000 bits hold at most 4215 digits
_STR_DIGITS = 4000


def _int_digits(v: int) -> str:
    """str(v) for v >= 0 of any size: halves split by divmod with 10**k."""
    if v.bit_length() <= _STR_BITS:
        return str(v)
    k = v.bit_length() * 3 // 20  # below half the digits: log10(2) > 0.3
    hi, lo = divmod(v, 10 ** k)
    return _int_digits(hi) + _int_digits(lo).rjust(k, "0")


def _parse_digits(text: str) -> int:
    """int(text) for a string of decimal digits of any length."""
    if len(text) <= _STR_DIGITS:
        return int(text)
    k = len(text) // 2
    return _parse_digits(text[:-k]) * 10 ** k + _parse_digits(text[-k:])


# (ndigits, 10**ndigits) of HPReal.decimal per fraction width; emptied once
# it holds _DECIMAL_CACHE_SIZE widths, so values of ever new exponents
# cannot grow it without bound
_decimal_cache: dict = {}
_DECIMAL_CACHE_SIZE = 256


def _decimal_scale(shift: int) -> tuple:
    """(ndigits, 10**ndigits) for a fraction of `shift` bits, ndigits the
    digit count of 2**(shift + 2), so the least with 10**ndigits >
    2**(shift + 2); memoised per shift."""
    scale = _decimal_cache.get(shift)
    if scale is None:
        if len(_decimal_cache) >= _DECIMAL_CACHE_SIZE:
            _decimal_cache.clear()
        ndigits = len(_int_digits(1 << (shift + 2)))
        scale = _decimal_cache[shift] = (ndigits, 10 ** ndigits)
    return scale


# ---------------------------------------------------------------------------
# the scalar type
# ---------------------------------------------------------------------------


class HPReal:
    """Immutable arbitrary-precision real scalar."""

    __slots__ = ("sign", "mantissa", "exponent", "precision")

    def __init__(self, sign: int, mantissa: int, exponent: int, precision: int):
        self._check_precision(precision)
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if sign == 0:
            mantissa, exponent = 0, 0
        elif mantissa.bit_length() != precision:
            raise ValueError("mantissa must be normalized to exactly `precision` bits")
        self.sign = sign
        self.mantissa = mantissa
        self.exponent = exponent
        self.precision = precision

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, sign: int, mant: int, exp: int, precision: int) -> "HPReal":
        out = object.__new__(cls)
        out.sign = sign
        out.mantissa = mant
        out.exponent = exp
        out.precision = precision
        return out

    @classmethod
    def zero(cls, precision: int = 128) -> "HPReal":
        cls._check_precision(precision)
        return cls._raw(0, 0, 0, precision)

    @classmethod
    def one(cls, precision: int = 128) -> "HPReal":
        return cls.from_int(1, precision)

    @classmethod
    def from_int(cls, value: int, precision: int = 128) -> "HPReal":
        cls._check_precision(precision)
        if value == 0:
            return cls._raw(0, 0, 0, precision)
        sign = 1 if value > 0 else -1
        s, m, e = round_raw(sign, abs(value), 0, precision)
        return cls._raw(s, m, e, precision)

    @classmethod
    def from_ratio(cls, num: int, den: int, precision: int = 128) -> "HPReal":
        """num/den correctly rounded in one step."""
        cls._check_precision(precision)
        if den == 0:
            raise DivisionByZero("from_ratio with zero denominator")
        if num == 0:
            return cls._raw(0, 0, 0, precision)
        sign = 1 if (num > 0) == (den > 0) else -1
        s, m, e = _quotient(sign, abs(num), abs(den), 0, precision)
        return cls._raw(s, m, e, precision)

    @classmethod
    def from_float(cls, value: float, precision: int = 128) -> "HPReal":
        """Exact dyadic embedding of a binary64 value, then rounding."""
        cls._check_precision(precision)
        if value != value or value in (math.inf, -math.inf):
            raise ValueError("cannot convert non-finite float")
        if value == 0.0:
            return cls._raw(0, 0, 0, precision)
        frac, e = math.frexp(value)
        m = int(frac * (1 << 53))  # exact: binary64 has 53 mantissa bits
        sign = 1 if m > 0 else -1
        s, mm, ee = round_raw(sign, abs(m), e - 53, precision)
        return cls._raw(s, mm, ee, precision)

    @classmethod
    def pow2(cls, k: int, precision: int = 128) -> "HPReal":
        """Exact 2**k."""
        cls._check_precision(precision)
        return cls._raw(1, 1 << (precision - 1), k - (precision - 1), precision)

    @staticmethod
    def _check_precision(precision: int) -> None:
        if precision < MIN_PRECISION:
            raise InvalidPrecision(
                f"precision must be >= {MIN_PRECISION}, got {precision}")

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Nearest binary64; intended for diagnostics, not computation."""
        if self.sign == 0:
            return 0.0
        top = self.mantissa >> max(self.mantissa.bit_length() - 54, 0)
        shift = self.exponent + max(self.mantissa.bit_length() - 54, 0)
        try:
            return math.ldexp(self.sign * top, shift)
        except OverflowError:
            return math.inf if self.sign > 0 else -math.inf

    def __float__(self) -> float:
        return self.to_float()

    def __bool__(self) -> bool:
        return self.sign != 0

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, HPReal):
            return other
        if isinstance(other, int):
            return HPReal.from_int(other, self.precision)
        return None

    def __neg__(self) -> "HPReal":
        return HPReal._raw(-self.sign, self.mantissa, self.exponent, self.precision)

    def __abs__(self) -> "HPReal":
        return HPReal._raw(abs(self.sign), self.mantissa, self.exponent, self.precision)

    def __add__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o, -1)

    def __rsub__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(o, self, -1)

    def __mul__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision, o.precision)
        sign = self.sign * o.sign
        if sign == 0:
            return HPReal._raw(0, 0, 0, prec)
        s, m, e = round_raw(sign, self.mantissa * o.mantissa,
                             self.exponent + o.exponent, prec)
        return HPReal._raw(s, m, e, prec)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision, o.precision)
        if o.sign == 0:
            raise DivisionByZero("division by zero")
        if self.sign == 0:
            return HPReal._raw(0, 0, 0, prec)
        s, m, e = _quotient(self.sign * o.sign, self.mantissa, o.mantissa,
                            self.exponent - o.exponent, prec)
        return HPReal._raw(s, m, e, prec)

    def __rtruediv__(self, other) -> "HPReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sqrt(self) -> "HPReal":
        """Square root with |result**2 - self| <= 2**(2-precision) * self."""
        if self.sign < 0:
            raise NegativeSqrt("square root of a negative value")
        prec = self.precision
        if self.sign == 0:
            return HPReal._raw(0, 0, 0, prec)
        # shift to >= 2*prec+6 bits with even exponent so the root has
        # prec+3 significant bits before rounding
        shift = max(2 * prec + 6 - self.mantissa.bit_length(), 0)
        if (self.exponent - shift) & 1:
            shift += 1
        scaled = self.mantissa << shift
        root = math.isqrt(scaled)
        s, m, e = round_raw(1, root, (self.exponent - shift) >> 1, prec,
                             sticky=root * root != scaled)
        return HPReal._raw(s, m, e, prec)

    def scale2(self, k: int) -> "HPReal":
        """Exact multiplication by 2**k."""
        if self.sign == 0:
            return self
        return HPReal._raw(self.sign, self.mantissa, self.exponent + k, self.precision)

    def with_precision(self, precision: int) -> "HPReal":
        """Round (or exactly widen) to a different working precision."""
        HPReal._check_precision(precision)
        s, m, e = round_raw(self.sign, self.mantissa, self.exponent, precision)
        return HPReal._raw(s, m, e, precision)

    # -- ordering (exact on stored values, no implicit tolerance) ------------

    def _cmp(self, other: "HPReal") -> int:
        if self.sign != other.sign:
            return 1 if self.sign > other.sign else -1
        if self.sign == 0:
            return 0
        ta = self.exponent + self.mantissa.bit_length()
        tb = other.exponent + other.mantissa.bit_length()
        if ta != tb:
            mag = 1 if ta > tb else -1
        else:
            d = self.exponent - other.exponent
            a, b = self.mantissa, other.mantissa
            if d > 0:
                a <<= d
            elif d < 0:
                b <<= -d
            mag = 0 if a == b else (1 if a > b else -1)
        return mag * self.sign

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) == 0

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    __hash__ = None  # mutable-free but representation-identity is not value-identity

    # -- decimal serialization ------------------------------------------------

    def decimal(self) -> str:
        """Plain decimal string with enough digits to round-trip exactly.

        The fraction keeps 10**F > 2**(2-exponent) so that distinct values at
        this precision map to distinct strings; ``from_decimal`` at the same
        precision inverts this exactly.
        """
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        if self.exponent >= 0:
            return prefix + _int_digits(self.mantissa << self.exponent)
        shift = -self.exponent
        whole = self.mantissa >> shift
        frac = self.mantissa & ((1 << shift) - 1)
        ndigits, ten = _decimal_scale(shift)
        scaled, rem = divmod(frac * ten, 1 << shift)
        if 2 * rem >= (1 << shift):
            scaled += 1
            if scaled == ten:
                whole += 1
                scaled = 0
        digits = _int_digits(scaled).rjust(ndigits, "0").rstrip("0")
        if not digits:
            return prefix + _int_digits(whole)
        return f"{prefix}{_int_digits(whole)}.{digits}"

    @classmethod
    def from_decimal(cls, text: str, precision: int = 128) -> "HPReal":
        """Parse a decimal string (optional fraction and exponent), correctly
        rounded in a single step.  Malformed text, a nonzero value whose
        leading digit lies outside 10**+-DECIMAL_MAX_MAGNITUDE, and more than
        DECIMAL_MAX_MAGNITUDE + precision significant digits raise ValueError.

        The bound holds for the rounded value: a leading digit one decade
        past it is accepted if the value rounds to the rounding of a value
        inside, that is to no less than 10**-DECIMAL_MAX_MAGNITUDE rounded,
        or no more than 10**(DECIMAL_MAX_MAGNITUDE + 1) rounded (rounding is
        monotone).  The decimal() string of a result may lead one decade
        out, as 1e-100000 rounds below 10**-100000 at 32 bits, and it
        parses back."""
        cls._check_precision(precision)
        s = text.strip()
        sign = 1
        if s.startswith(("+", "-")):
            sign = -1 if s[0] == "-" else 1
            s = s[1:]
        mant_part, exp10 = s, 0
        for marker in ("e", "E"):
            if marker in mant_part:
                mant_part, exp_part = mant_part.split(marker, 1)
                exp10 = int(exp_part)
                break
        if "." in mant_part:
            whole, frac = mant_part.split(".", 1)
        else:
            whole, frac = mant_part, ""
        if not (whole + frac).isdigit() or not (whole or frac):
            raise ValueError(f"not a decimal number: {text!r}")
        # trailing zeros move into the exponent, exactly
        mant = (whole + frac).lstrip("0")
        significant = mant.rstrip("0")
        scale = exp10 - len(frac) + len(mant) - len(significant)
        if not significant:
            return cls._raw(0, 0, 0, precision)
        lead = len(significant) - 1 + scale
        if abs(lead) <= DECIMAL_MAX_MAGNITUDE + 1:
            if len(significant) > DECIMAL_MAX_MAGNITUDE + precision:
                raise ValueError(f"more than {DECIMAL_MAX_MAGNITUDE + precision} "
                                 f"significant digits: {text[:40]!r}")
            value = cls._round_decimal(sign, _parse_digits(significant), scale,
                                       precision)
            if abs(lead) <= DECIMAL_MAX_MAGNITUDE:
                return value
            edge = cls._round_decimal(1, 1, lead if lead > 0 else lead + 1,
                                      precision)
            if (abs(value) <= edge) if lead > 0 else (abs(value) >= edge):
                return value
        raise ValueError(f"decimal magnitude outside 10**+-"
                         f"{DECIMAL_MAX_MAGNITUDE}: {text[:40]!r}")

    @classmethod
    def _round_decimal(cls, sign: int, digits: int, scale: int,
                       precision: int) -> "HPReal":
        """sign * digits * 10**scale, rounded once."""
        if scale >= 0:
            value = digits * 10 ** scale
            s_, m, e = round_raw(sign, value, 0, precision)
            return cls._raw(s_, m, e, precision)
        # digits * 10**scale = digits / 5**-scale * 2**scale, rounded once
        s_, m, e = _quotient(sign, digits, 5 ** -scale, scale, precision)
        return cls._raw(s_, m, e, precision)

    def __repr__(self) -> str:
        return f"HPReal(~{self.to_float():.17g}, precision={self.precision})"


# ---------------------------------------------------------------------------
# addition with capped alignment
# ---------------------------------------------------------------------------


def add_raw(sa: int, ma: int, ea: int, sb: int, mb: int, eb: int, precision: int):
    """Round the exact sum of two raw values to `precision` bits.

    Each operand is a (sign, mantissa, exponent) triple with a mantissa of at
    most `precision` bits (zero has sign and mantissa 0); returns the rounded
    triple.  ``HPReal`` addition and the fused complex kernels in
    :mod:`unityroot.hpcomplex` both round their sums here.
    """
    if sb == 0:
        return round_raw(sa, ma, ea, precision)
    if sa == 0:
        return round_raw(sb, mb, eb, precision)
    ta = ea + ma.bit_length()
    tb = eb + mb.bit_length()
    top = ta if ta > tb else tb
    # an operand more than prec+8 bits below the top only contributes its
    # leading bits plus a sticky tail; at most one operand can be that low
    common = ea if ea < eb else eb
    floor_exp = top - (precision + 8)
    if common < floor_exp:
        common = floor_exp
    sticky = False
    # signed floor shift keeps total == floor(exact sum / 2**common)
    if ea >= common:
        total = sa * (ma << (ea - common))
    else:
        d = common - ea
        sticky = bool(ma & ((1 << d) - 1))
        total = (sa * ma) >> d
    if eb >= common:
        total += sb * (mb << (eb - common))
    else:
        d = common - eb
        sticky = sticky or bool(mb & ((1 << d) - 1))
        total += (sb * mb) >> d
    if total == 0 and not sticky:
        return 0, 0, 0
    # the dropped tail is in [0, 1) units ABOVE total; fold it into a
    # magnitude-floor so the rounding jam always points the right way
    if total >= 0:
        sign, mag = 1, total
    else:
        sign, mag = -1, -total - (1 if sticky else 0)
    # |total| >= 2**(prec+7) whenever sticky is set, so mag stays positive
    return round_raw(sign, mag, common, precision, sticky)


def _add(a: HPReal, b: HPReal, b_factor: int) -> HPReal:
    prec = max(a.precision, b.precision)
    s, m, e = add_raw(a.sign, a.mantissa, a.exponent,
                       b_factor * b.sign, b.mantissa, b.exponent, prec)
    return HPReal._raw(s, m, e, prec)
