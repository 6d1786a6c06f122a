"""Shared test helpers: exact-value extraction, deterministic sampling and
fresh solves."""

import importlib
import pkgutil
from fractions import Fraction

import unityroot
from unityroot import HPComplex, HPReal

# Weyl-style low-discrepancy integer sequence; 2654435761 is the Knuth
# multiplicative-hash constant, coprime to 2**32
_WEYL = 2654435761
_MOD = 1 << 32


def exact(x: HPReal) -> Fraction:
    """The exact rational value of an HPReal (they are all dyadic)."""
    if x.sign == 0:
        return Fraction(0)
    m = x.sign * x.mantissa
    if x.exponent >= 0:
        return Fraction(m * (1 << x.exponent))
    return Fraction(m, 1 << -x.exponent)


def exact_complex(z: HPComplex):
    return exact(z.re), exact(z.im)


def unit_fractions(count: int, seed: int = 1):
    """Deterministic quasi-random dyadic fractions in (0, 1)."""
    state = seed * _WEYL % _MOD
    out = []
    for _ in range(count):
        state = (state + _WEYL) % _MOD
        out.append(Fraction(state | 1, _MOD))
    return out


def sample_reals(count: int, lo: Fraction, hi: Fraction, precision: int = 128,
                 seed: int = 1):
    """Deterministic HPReal samples in [lo, hi]; exact dyadic inputs."""
    span = hi - lo
    vals = []
    for f in unit_fractions(count, seed=seed):
        q = lo + span * f
        vals.append(HPReal.from_ratio(q.numerator, q.denominator, precision))
    return vals


def sample_complexes(count: int, precision: int = 128, seed: int = 1):
    """Deterministic complex samples with components in [-1, 1]."""
    res = sample_reals(count, Fraction(-1), Fraction(1), precision, seed=seed)
    ims = sample_reals(count, Fraction(-1), Fraction(1), precision, seed=seed + 7)
    return [HPComplex(r, i) for r, i in zip(res, ims)]


def clear_caches():
    """Empty every module-level cache of the package: the dicts named
    ``*_cache``, as perfbench's ``Library.clear_caches`` finds them."""
    for info in pkgutil.iter_modules(unityroot.__path__):
        mod = importlib.import_module(f"unityroot.{info.name}")
        for name, value in vars(mod).items():
            if name.endswith("_cache") and isinstance(value, dict):
                value.clear()


def fresh(compute, *args):
    """compute(*args) with every package cache emptied first, so a cached
    solve cannot stand in for a new one."""
    clear_caches()
    return compute(*args)
