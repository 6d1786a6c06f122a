"""Primitive n-th roots of unity from field arithmetic and square roots.

The package constructs the distinguished root zeta(n) = a + ib (the unique
root of unity with positive imaginary part closest to 1), certifies its
primitivity through the real-part descent sequence, and applies it to
primitivity queries, n-th roots of arbitrary targets, and a reference DFT.
Nothing in the construction path evaluates a transcendental function; the
series-based trigonometric oracle exists only to verify the result.
"""

from .dft import TwiddleTable, dft_forward, dft_inverse, twiddle_table
from .descent import (CertificateChecks, ZetaCertificate, advance_re,
                      advance_re_derivative, build_certificate,
                      descent_sequence, retreat_re)
from .errors import (CertificateFailure, DivisionByZero, DomainError,
                     DomainViolation, InvalidM, InvalidN, InvalidPrecision,
                     NegativeSqrt, NoConvergence, NonDescent, NotARoot,
                     NotPrime, NumericalError, StepLimit, UnityRootError,
                     ZeroTarget)
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .oracle import OracleRoot, trig_root, zeta_matches_trig
from .primitivity import (PrimitivityReport, gcd_primitivity, is_prime,
                          multiplicative_order, prime_shortcut, roots_of)
from .solver import RootSet, solve_binomial, solve_unity
from .zeta import Zeta, construct_zeta, radius_identity_check, zeta_power

__version__ = "0.1.0"

__all__ = [
    "CertificateChecks", "CertificateFailure", "DivisionByZero",
    "DomainError", "DomainViolation", "HPComplex", "HPReal", "InvalidM",
    "InvalidN", "InvalidPrecision", "NegativeSqrt", "NoConvergence",
    "NonDescent", "NotARoot", "NotPrime", "NumericalError", "OracleRoot",
    "PrimitivityReport", "RootSet", "StepLimit",
    "TwiddleTable", "UnityRootError", "Zeta", "ZetaCertificate",
    "ZeroTarget", "advance_re", "advance_re_derivative", "build_certificate",
    "construct_zeta", "descent_sequence", "dft_forward", "dft_inverse",
    "gcd_primitivity", "is_prime", "multiplicative_order", "prime_shortcut",
    "radius_identity_check", "retreat_re", "roots_of", "solve_binomial",
    "solve_unity", "trig_root", "twiddle_table", "zeta_matches_trig",
    "zeta_power",
]
