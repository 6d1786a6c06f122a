"""Command-line front end with machine-readable JSON output.

Commands: roots, zeta, verify, order, roots-of, dft.  Every number in JSON
output is a decimal string that parses back to the exact internal bits at
the stated precision; identical invocations produce byte-identical output.

Exit codes: 0 success, 1 domain errors (bad n, zero target, malformed
values, an unwritable --output), 2 numerical failures (no convergence,
failed certificate checks), 64 malformed command lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .descent import DESCENT_MIN_N, build_certificate
from .dft import dft_forward
from .errors import (CertificateFailure, DomainError, InvalidM, InvalidN,
                     InvalidPrecision, NumericalError, UnityRootError)
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .oracle import zeta_matches_trig
from .primitivity import multiplicative_order, roots_of
from .solver import solve_unity
from .zeta import (construct_zeta, radius_identity_check, zeta_basis,
                   zeta_power)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="unityroot",
                     description="Construct, certify and apply primitive "
                                 "n-th roots of unity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, need_n=True):
        p = sub.add_parser(name, help=summary)
        if need_n:
            p.add_argument("--n", type=int, required=True, help="index n >= 1")
        p.add_argument("--precision", type=int, default=128,
                       help="working precision in bits (default 128)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", dest="output_path", default=None,
                       help="write the payload to this path instead of stdout")
        return p

    command("roots", "all n-th roots of unity")
    command("zeta", "the distinguished primitive root").add_argument(
        "--certificate", action="store_true",
        help="include the descent certificate in the payload")
    command("verify", "full construction + certification chain")
    command("order", "multiplicative order of zeta^m").add_argument(
        "--m", type=int, required=True, help="power 1 <= m <= n")
    p = command("roots-of", "all n-th roots of an arbitrary c")
    p.add_argument("--c-re", dest="c_re", required=True,
                   help="real part of c as a decimal string")
    p.add_argument("--c-im", dest="c_im", default="0",
                   help="imaginary part of c as a decimal string")
    p = command("dft", "forward reference DFT of a JSON vector", need_n=False)
    p.add_argument("--n", type=int, default=None,
                   help="expected length (validated against the input file)")
    p.add_argument("--input", dest="input_path", required=True,
                   help="JSON file {n, values: [{re, im}, ...]}")
    return parser


# ---------------------------------------------------------------------------
# payload builders: each command returns its own keys, the dispatcher adds
# schema_version
# ---------------------------------------------------------------------------


def _complex_obj(z: HPComplex) -> dict:
    return {"re": z.re.decimal(), "im": z.im.decimal()}


def _rootset_payload(rs) -> dict:
    return {
        "n": rs.n,
        "precision": rs.precision,
        "residual_bound": rs.residual_bound.decimal(),
        "roots": [_complex_obj(z) for z in rs.roots],
    }


def _certificate_payload(cert) -> dict | None:
    return None if cert is None else {
        "n": cert.n,
        "p": cert.p,
        "xs": [x.decimal() for x in cert.xs],
        "checks": cert.checks.as_dict(),
        "tolerance": cert.tolerance.decimal(),
    }


def _make_certificate(n: int, precision: int):
    """Certificate for the construction behind zeta(n), at the index
    zeta_basis(n) of its solve; absent where that index lies below the
    descent's domain (n in {1, 2, 4})."""
    basis = zeta_basis(n)
    if basis < DESCENT_MIN_N:
        return None
    zeta = construct_zeta(basis, precision)
    return build_certificate(zeta, solve_unity(basis, precision))


def _zeta_header(args):
    """zeta(n) and the header that `zeta` and `verify` share."""
    zeta = construct_zeta(args.n, args.precision)
    return zeta, {"n": args.n, "precision": args.precision,
                  "a": zeta.a.decimal(), "b": zeta.b.decimal(),
                  "r": zeta.r.decimal()}


def _cmd_roots(args) -> dict:
    return _rootset_payload(solve_unity(args.n, args.precision))


def _cmd_zeta(args) -> dict:
    _, payload = _zeta_header(args)
    if args.certificate:
        payload["certificate"] = _certificate_payload(
            _make_certificate(args.n, args.precision))
    return payload


def _cmd_verify(args) -> dict:
    zeta, payload = _zeta_header(args)
    checks = {"radius_identity": radius_identity_check(zeta)}
    cert_failed: list = []
    try:
        cert = _make_certificate(args.n, args.precision)
    except CertificateFailure as exc:
        cert, cert_failed = exc.certificate, exc.failed
    payload["certificate"] = _certificate_payload(cert)
    if cert is not None:
        checks["certificate_passed"] = not cert_failed
    report = multiplicative_order(zeta.as_complex(), args.n)
    checks["order_equals_n"] = report.is_primitive
    checks["trig_oracle_match"] = zeta_matches_trig(args.n, args.precision)
    payload["checks"] = checks
    payload["passed"] = all(checks.values())
    if not payload["passed"]:
        payload["failed_checks"] = sorted(
            [k for k, v in checks.items() if not v] + cert_failed)
    return payload


def _cmd_order(args) -> dict:
    report = multiplicative_order(
        zeta_power(args.n, args.m, args.precision), args.n)
    return {
        "n": args.n,
        "m": args.m,
        "precision": args.precision,
        "order": report.order,
        "is_primitive": report.is_primitive,
        "gcd": math.gcd(args.m, args.n),
    }


def _cmd_roots_of(args) -> dict:
    try:
        c = HPComplex(HPReal.from_decimal(args.c_re, args.precision),
                      HPReal.from_decimal(args.c_im, args.precision))
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    payload = _rootset_payload(roots_of(c, args.n, args.precision))
    payload["c"] = _complex_obj(c)
    return payload


def _cmd_dft(args) -> dict:
    try:
        with open(args.input_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        values = [HPComplex(HPReal.from_decimal(str(v["re"]), args.precision),
                            HPReal.from_decimal(str(v["im"]), args.precision))
                  for v in doc["values"]]
    # malformed JSON raises ValueError, JSON nested past the decoder's
    # recursion limit RecursionError
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DomainError(f"bad dft input: {exc}") from exc
    n = len(values)
    if n == 0:
        raise DomainError("dft input must contain at least one value")
    if "n" in doc and doc["n"] != n:
        raise DomainError(f"input declares n={doc['n']} but holds {n} values")
    if args.n is not None and args.n != n:
        raise DomainError(f"--n {args.n} does not match input length {n}")
    return {
        "n": n,
        "precision": args.precision,
        "values": [_complex_obj(z) for z in values],
        "transform": [_complex_obj(z) for z in dft_forward(values, args.precision)],
    }


_COMMANDS = {
    "roots": _cmd_roots,
    "zeta": _cmd_zeta,
    "verify": _cmd_verify,
    "order": _cmd_order,
    "roots-of": _cmd_roots_of,
    "dft": _cmd_dft,
}


# ---------------------------------------------------------------------------
# rendering and dispatch
# ---------------------------------------------------------------------------


def _text_lines(value, name: str):
    """`name = value` lines: a dict extends the name with `.key` for each
    entry, a list with `[i]` for each item."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _text_lines(item, f"{name}.{key}")
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from _text_lines(item, f"{name}[{idx}]")
    else:
        yield f"{name} = {value}"


def _render(payload: dict, fmt: str) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(line for key, value in payload.items()
                     for line in _text_lines(value, key)) + "\n"


def _error(exc: UnityRootError) -> tuple[dict, int]:
    """The payload and exit code of a library error."""
    payload = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, CertificateFailure):
        payload["failed_checks"] = exc.failed
        payload["certificate"] = _certificate_payload(exc.certificate)
    return payload, EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DOMAIN


def run(args: argparse.Namespace) -> int:
    """Dispatch parsed arguments; returns the process exit code.  A payload
    that --output cannot take goes to stdout as a DomainError naming it."""
    try:
        if args.command != "dft" and args.n < 1:
            raise InvalidN(f"n must be >= 1, got {args.n}")
        if args.command == "order" and not 1 <= args.m <= args.n:
            raise InvalidM(f"m must satisfy 1 <= m <= n = {args.n}, got {args.m}")
        if args.precision < 32:
            raise InvalidPrecision("precision must be at least 32 bits")
        payload = _COMMANDS[args.command](args)
        code = EXIT_OK if payload.get("passed", True) else EXIT_NUMERICAL
    except UnityRootError as exc:
        payload, code = _error(exc)
    text = _render(payload, args.format)
    if args.output_path is not None:
        try:
            with open(args.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return code
        except OSError as exc:
            payload, code = _error(DomainError(
                f"cannot write {args.output_path}: {exc.strerror}"))
            text = _render(payload, args.format)
    sys.stdout.write(text)
    return code


def parse_args(argv=None) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
