"""Aberth's simultaneous method in binary64, the float stage of
``solve_binomial``.

Aberth 1973; Bini 1996, the MPSolve design.  The sweeps run on z**m = c,
m odd, from the rotation seeds u, u^2, ..., u^m, u = g/|g| with
g = 0.4 + 0.9i: unit-circle points at irrational angles, which break the
symmetry that stalls exact-circle seeds on z**m - 1.  The repulsion sums
are formed in blocks of at most _BLOCK rows, so the stage needs
O(_BLOCK m) memory.

This is the package's only numpy user: the solver imports it on the first
``solve_binomial`` call, so the unity path, the certificate and the CLI
never load numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence

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
