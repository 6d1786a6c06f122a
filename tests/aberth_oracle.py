"""An independent solver for z**n = c, kept on the test side as an oracle.

The package solves z**n = c by one rotation: the principal root c**(1/n)
times the n-th roots of unity of ``solve_unity``.  This module finds all n
roots another way, so the cross-checks have something other than the
rotation to compare with.  After an exact power-of-two reduction of c, the
float stage finds the roots in hardware binary64: write n = 2**j m with m
odd, Aberth's simultaneous method (Aberth 1973; Bini 1996, the MPSolve
design) runs Jacobi sweeps on z**m = c only, and the roots of z**(2d) = c
are +-sqrt(y) for the roots y of z**d = c, so j square-root lifting steps
give all n roots.  The settled estimates seed the package's fixed-point
Newton loop, one root at a time.  Nothing in that construction keeps two
estimates from reaching one root, so the set is screened for pairs closer
than the distinctness floor (:func:`_collapsed_pair`) before the package's
order is applied, and bounded root by root (:func:`per_root_bound`).  The
package's own root sets need no such screen, being distinct by
construction, and are bounded from their structure; the tests also run the
screen on them to confirm the one, and hold their bounds against
:func:`per_root_bound` for the other.  Every stage is a pure function of (c, n, precision), so
repeated calls are bit-identical.

The sweeps run on z**m = c from the rotation seeds u, u^2, ..., u^m,
u = g/|g| with g = 0.4 + 0.9i: unit-circle points at irrational angles,
which break the symmetry that stalls exact-circle seeds on z**m - 1.  The
repulsion sums are formed in blocks of at most _BLOCK rows, so the stage
needs O(_BLOCK m) memory.  The stage uses numpy, which the package itself
never imports.
"""

from __future__ import annotations

import math

import numpy as np

from unityroot import fixed
from unityroot.errors import NoConvergence, ZeroTarget
from unityroot.hpcomplex import HPComplex
from unityroot.hpreal import HPReal
from unityroot.solver import (RootSet, _bounded_rootset, _check_index, _csqrt,
                              _pair, _root_scale, _scale2, _sort_roots,
                              contract_tol, distinct_exp)


def per_root_bound(zs: list, c: HPComplex, n: int, precision: int) -> HPReal:
    """A proven upper bound on |z**n - c| over the roots zs, evaluated root
    by root and rounded upward: one ladder per root.  The package bounds
    its root sets from their structure instead; this is the oracle the
    tests hold those bounds against, and the bound of this module's own
    root sets, which have no such structure.

    Write y = z / 2**k and c' = c / 2**(k n), 2**k the roots' scale, so
    |z**n - c| = 2**(k n) |y**n - c'|.  Both enter the fixed-point kernel
    exactly: frac starts at precision + 64 and is raised until every
    component of every y and of c' is a multiple of 2**-frac.  With
    P = fixed.power(y, n) and all values in units of 2**-frac,

        |y**n - c'| <= |P - c'| + |P - y**n|
                    <= ceil(sqrt(|P - c'|**2)) + fixed.power_error(y, n),

    where |P - c'|**2 is an exact integer and the second term is the
    kernel's proven bound on its own power (derived in
    :func:`fixed.power_error`, once per distinct fixed.modulus_bound).  The
    largest such integer N over the roots gives
    |z**n - c| <= N * 2**(k n - frac), which is rounded upward once.
    """
    _, k = _root_scale(c, n)
    scaled = [_scale2(c, -k * n)] + [_scale2(z, -k) for z in zs]
    frac, parts = fixed.lift([v for z in scaled for v in (z.re, z.im)],
                             fixed.frac_bits(precision))
    cr, ci = parts[:2]
    worst, errors = 0, {}
    for y in zip(parts[2::2], parts[3::2]):
        pr, pi = fixed.power(y, n, frac)
        # power_error reads y only through its modulus bound
        w = fixed.modulus_bound(y, frac)
        if w not in errors:
            errors[w] = fixed.power_error(y, n, frac)
        worst = max(worst, fixed.sqrt_up((pr - cr) ** 2 + (pi - ci) ** 2)
                    + errors[w])
    return fixed.to_hpreal_up(worst, frac - k * n, precision)


_SEED = complex(0.4, 0.9)
_ROTATION = _SEED / abs(_SEED)

# rows of the repulsion sums formed at once
_BLOCK = 256


def _rotation_seeds(n: int, scale: float) -> np.ndarray:
    """scale * u^k for k = 1..n with u = g/|g| on the unit circle: distinct
    points whose angles (k times an irrational multiple of pi) never fall
    into the n-fold symmetry that stalls exact-circle seeds on z**n - 1."""
    out = np.empty(n, dtype=np.complex128)
    cur = 1.0 + 0.0j
    for k in range(n):
        cur = cur * _ROTATION
        out[k] = cur * scale
    return out


def _pow(w: np.ndarray, n: int) -> np.ndarray:
    """w**n by binary powering (numpy's complex power goes through exp and
    log for n >= 100)."""
    out = np.ones_like(w)
    while n:
        if n & 1:
            out = out * w
        n >>= 1
        if n:
            w = w * w
    return out


def _repulsion(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S_i, the sum of 1/(z_i - z_j) over j != i, for each i in idx.

    The rows are formed in blocks of at most _BLOCK, so memory is
    O(_BLOCK len(z)); each row is still summed whole, by the same pairwise
    summation as a full matrix's row.
    """
    out = np.empty(len(idx), dtype=np.complex128)
    for lo in range(0, len(idx), _BLOCK):
        block = idx[lo:lo + _BLOCK]
        rows = np.arange(len(block))
        inv = z[block, None] - z[None, :]
        inv[rows, block] = 1.0
        np.divide(1.0, inv, out=inv)
        inv[rows, block] = 0.0
        out[lo:lo + _BLOCK] = inv.sum(axis=1)
    return out


def roots(n: int, c: complex, sweep_budget: int) -> tuple:
    """Aberth sweeps in binary64 on z**n = c; returns (roots, sweeps_used),
    the roots a list of machine complex numbers.

    A root moves by 1/(R - S), S = :func:`_repulsion` and R = p'/p written
    so that no power overflows: (n/z) t/(t - c) with t = z^n for |z| <= 1,
    (n/z)/(1 - c t) with t = (1/z)^n for |z| > 1.  A root freezes once both
    its correction and its residual are small; the frozen value keeps
    repelling the still-active roots (Jacobi contract).  z**1 = c needs no
    sweep.
    """
    if n == 1:
        return [c], 0
    scale = abs(c)
    ebits = math.frexp(1.0 + scale)[1]
    z = _rotation_seeds(n, 2.0 ** max(ebits // n, 0))
    active = np.ones(n, dtype=bool)
    corr_tol = 1e-11 * max(1.0, scale)
    res_tol = 1e-9 * max(1.0, scale) * n
    for sweep in range(1, sweep_budget + 1):
        idx = np.nonzero(active)[0]
        za = z[idx]
        with np.errstate(over="ignore", under="ignore", invalid="ignore",
                         divide="ignore"):
            s = _repulsion(z, idx)
            inside = np.abs(za) <= 1.0
            t = _pow(np.where(inside, za, 1.0 / za), n)
            den = np.where(inside, t - c, 1.0 - c * t)
            num = (n / za) * np.where(inside, t, 1.0)
            # 1/(R - S) with R = num/den, exactly zero at an exact root
            corr = den / (num - s * den)
            pz = np.where(inside, den, den / t)
        mag = np.abs(corr)
        limit = 4.0 * (1.0 + np.abs(za))
        over = mag > limit
        if over.any():
            corr = np.where(over, corr * (limit / np.where(mag == 0.0, 1.0, mag)), corr)
            mag = np.abs(corr)
        z = z.copy()
        z[idx] = za - corr
        settled = (mag < corr_tol) & (np.abs(pz) < res_tol)
        if settled.any():
            active = active.copy()
            active[idx[settled]] = False
            if not active.any():
                return z.tolist(), sweep
    raise NoConvergence(
        f"float stage did not settle within {sweep_budget} sweeps for n={n}")


def float_stage(n: int, c: complex, sweep_budget: int) -> tuple:
    """Binary64 roots of z**n = c as a list; returns (roots, sweeps_used).

    Write n = 2**j m with m odd.  Aberth runs on z**m = c (:func:`roots`),
    and each of j lifting steps turns the roots y of z**(n/2**i) = c into
    the roots +-sqrt(y) of z**(2n/2**i) = c, so the sweeps see m roots only.
    """
    j = (n & -n).bit_length() - 1
    z, used = roots(n >> j, c, sweep_budget)
    for _ in range(j):
        r = [_csqrt(y) for y in z]
        z = r + [-y for y in r]
    return z, used


def _newton(seeds: list, c: HPComplex, n: int, k: int, precision: int) -> list:
    """The roots of z**n = c that :func:`unityroot.fixed.newton` reaches
    from machine-complex seeds of the roots scaled by 2**-k.

    Newton runs on integer pairs at frac = precision + 64 fraction bits (the
    seeds enter exactly, c / 2**(k n) truncated below 2**-frac), once per
    seed, and each component is rounded once at the end.
    """
    frac = fixed.frac_bits(precision)
    cs = _pair(c, frac - k * n)
    out = []
    for s in seeds:
        yr, yi = fixed.newton(_pair(HPComplex.from_float(s, 53), frac), cs,
                              n, frac)
        out.append(HPComplex(fixed.to_hpreal(yr, frac - k, precision),
                             fixed.to_hpreal(yi, frac - k, precision)))
    return out


def _collapsed_pair(zs: list, n: int, precision: int):
    """The first pair of zs closer than the distinctness floor 2**-e of n
    roots, e = distinct_exp(n, precision), or None.

    Screening runs in binary64 on the roots sorted by real part: each is
    compared with the next d = 1, 2, ... in that order until no real-part
    gap at offset d is below the screening band, so no pair within the band
    is missed and no n x n matrix is formed.  Suspects are re-measured in
    high precision.
    """
    if len(zs) < 2:
        return None
    e = distinct_exp(n, precision)
    approx = [z.to_complex() for z in zs]
    order = sorted(range(len(zs)), key=lambda u: approx[u].real)
    ranked = [approx[u] for u in order]
    band = max(2.0 ** -e * 4.0, 1e-12)
    thr2 = HPReal.pow2(-e, precision)
    thr2 = thr2 * thr2
    for d in range(1, len(zs)):
        near = False
        for j, (a, b) in enumerate(zip(ranked, ranked[d:])):
            # sorted, so |b - a| < band implies a real-part gap below it
            if b.real - a.real < band:
                near = True
                if abs(b - a) < band:
                    u, v = sorted((order[j], order[j + d]))
                    if (zs[u] - zs[v]).abs2() <= thr2:
                        return u, v
        if not near:
            break
    return None


def solve_binomial(c: HPComplex, n: int, precision: int = 128) -> RootSet:
    """All n solutions of z**n = c for c != 0, by Aberth's float stage and
    a Newton finish per root.  Roots closer than 2**k times the
    distinctness floor, 2**k their scale, raise NoConvergence; the order is
    the package's, with the real band 2**k * contract_tol, and the residual
    bound is :func:`per_root_bound` over every root."""
    if c.is_zero():
        raise ZeroTarget("z**n = 0 has only the trivial root")
    _check_index(n, precision)
    # reduce by an exact power of two so the float stage sees a tame target:
    # z = 2**k * y  with  y**n = c / 2**(k*n)
    _, k = _root_scale(c, n)
    cf = _scale2(c, -k * n).to_complex()
    if not (math.isfinite(cf.real) and math.isfinite(cf.imag)):
        raise NoConvergence("target magnitude outside the supported range")
    floats, _ = float_stage(n, cf, 50 + 10 * n)
    zs = _newton(floats, c, n, k, precision)
    pair = _collapsed_pair([_scale2(z, -k) for z in zs], n, precision)
    if pair is not None:
        raise NoConvergence(
            f"roots {pair[0]} and {pair[1]} collapsed below the distinctness floor")
    zs = _sort_roots(zs, contract_tol(precision).scale2(k))
    return _bounded_rootset(zs, c, n, precision,
                            per_root_bound(zs, c, n, precision))
