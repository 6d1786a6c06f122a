"""Command-line front end with machine-readable JSON output.

Commands: roots, zeta, verify, order, roots-of, dft.  Every number in JSON
output is a decimal string that parses back to the exact internal bits at
the stated precision; identical invocations produce byte-identical output.

Exit codes: 0 success, 1 domain errors (bad n, zero target, malformed
values), 2 numerical failures (no convergence, failed certificate checks),
64 malformed command lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .descent import DESCENT_MIN_N, ZetaCertificate, build_certificate
from .errors import CertificateFailure, DomainError, NumericalError
from .hpcomplex import HPComplex
from .hpreal import HPReal
from .oracle import zeta_matches_trig
from .primitivity import gcd_primitivity, multiplicative_order, roots_of
from .solver import solve_unity
from .zeta import construct_zeta, radius_identity_check, zeta_basis

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


@dataclass
class CliConfig:
    command: str
    n: int | None = None
    m: int | None = None
    c_re: str | None = None
    c_im: str | None = None
    precision: int = 128
    format: str = "json"
    input_path: str | None = None
    output_path: str | None = None
    with_certificate: bool = False


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

    def common(p, need_n=True):
        if need_n:
            p.add_argument("--n", type=int, required=True, help="index n >= 1")
        p.add_argument("--precision", type=int, default=128,
                       help="working precision in bits (default 128)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", dest="output_path", default=None,
                       help="write the payload to this path instead of stdout")

    p = sub.add_parser("roots", help="all n-th roots of unity")
    common(p)

    p = sub.add_parser("zeta", help="the distinguished primitive root")
    common(p)
    p.add_argument("--certificate", action="store_true",
                   help="include the descent certificate in the payload")

    p = sub.add_parser("verify", help="full construction + certification chain")
    common(p)

    p = sub.add_parser("order", help="multiplicative order of zeta^m")
    common(p)
    p.add_argument("--m", type=int, required=True, help="power 1 <= m <= n")

    p = sub.add_parser("roots-of", help="all n-th roots of an arbitrary c")
    common(p)
    p.add_argument("--c-re", dest="c_re", required=True,
                   help="real part of c as a decimal string")
    p.add_argument("--c-im", dest="c_im", default="0",
                   help="imaginary part of c as a decimal string")

    p = sub.add_parser("dft", help="forward reference DFT of a JSON vector")
    common(p, need_n=False)
    p.add_argument("--n", type=int, default=None,
                   help="expected length (validated against the input file)")
    p.add_argument("--input", dest="input_path", required=True,
                   help="JSON file {n, values: [{re, im}, ...]}")

    return parser


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def _num(x: HPReal) -> str:
    return x.decimal()


def _complex_obj(z: HPComplex) -> dict:
    return {"re": _num(z.re), "im": _num(z.im)}


def _rootset_payload(rs) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": rs.n,
        "precision": rs.precision,
        "residual_bound": _num(rs.residual_bound),
        "roots": [_complex_obj(z) for z in rs.roots],
    }


def _certificate_payload(cert: ZetaCertificate) -> dict:
    return {
        "n": cert.n,
        "p": cert.p,
        "xs": [_num(x) for x in cert.xs],
        "checks": cert.checks.as_dict(),
        "tolerance": _num(cert.tolerance),
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


def _cmd_roots(cfg: CliConfig) -> tuple:
    rs = solve_unity(cfg.n, cfg.precision)
    return _rootset_payload(rs), EXIT_OK


def _cmd_zeta(cfg: CliConfig) -> tuple:
    zeta = construct_zeta(cfg.n, cfg.precision)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": cfg.n,
        "precision": cfg.precision,
        "a": _num(zeta.a),
        "b": _num(zeta.b),
        "r": _num(zeta.r),
    }
    if cfg.with_certificate:
        cert = _make_certificate(cfg.n, cfg.precision)
        payload["certificate"] = None if cert is None else _certificate_payload(cert)
    return payload, EXIT_OK


def _cmd_verify(cfg: CliConfig) -> tuple:
    zeta = construct_zeta(cfg.n, cfg.precision)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": cfg.n,
        "precision": cfg.precision,
        "a": _num(zeta.a),
        "b": _num(zeta.b),
        "r": _num(zeta.r),
        "certificate": None,
    }
    checks = {"radius_identity": radius_identity_check(zeta)}
    cert_failed: list = []
    try:
        cert = _make_certificate(cfg.n, cfg.precision)
    except CertificateFailure as exc:
        cert = exc.certificate
        cert_failed = exc.failed
    if cert is not None:
        payload["certificate"] = _certificate_payload(cert)
        checks["certificate_passed"] = not cert_failed
    report = multiplicative_order(zeta.as_complex(), cfg.n)
    checks["order_equals_n"] = report.is_primitive
    checks["trig_oracle_match"] = zeta_matches_trig(cfg.n, cfg.precision)
    payload["checks"] = checks
    payload["passed"] = all(checks.values())
    if not payload["passed"]:
        payload["failed_checks"] = sorted(
            [k for k, v in checks.items() if not v] + cert_failed)
        return payload, EXIT_NUMERICAL
    return payload, EXIT_OK


def _cmd_order(cfg: CliConfig) -> tuple:
    import math

    zeta = construct_zeta(cfg.n, cfg.precision)
    report = multiplicative_order(zeta.as_complex().pow(cfg.m), cfg.n)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": cfg.n,
        "m": cfg.m,
        "precision": cfg.precision,
        "order": report.order,
        "is_primitive": report.is_primitive,
        "gcd": math.gcd(cfg.m, cfg.n),
    }
    return payload, EXIT_OK


def _cmd_roots_of(cfg: CliConfig) -> tuple:
    try:
        c = HPComplex(HPReal.from_decimal(cfg.c_re, cfg.precision),
                      HPReal.from_decimal(cfg.c_im, cfg.precision))
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    rs = roots_of(c, cfg.n, cfg.precision)
    payload = _rootset_payload(rs)
    payload["c"] = _complex_obj(c)
    return payload, EXIT_OK


def _cmd_dft(cfg: CliConfig) -> tuple:
    from .dft import dft_forward

    try:
        with open(cfg.input_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        raw = doc["values"]
        values = [HPComplex(HPReal.from_decimal(str(v["re"]), cfg.precision),
                            HPReal.from_decimal(str(v["im"]), cfg.precision))
                  for v in raw]
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DomainError(f"bad dft input: {exc}") from exc
    n = len(values)
    if n == 0:
        raise DomainError("dft input must contain at least one value")
    if "n" in doc and doc["n"] != n:
        raise DomainError(f"input declares n={doc['n']} but holds {n} values")
    if cfg.n is not None and cfg.n != n:
        raise DomainError(f"--n {cfg.n} does not match input length {n}")
    transform = dft_forward(values, cfg.precision)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "precision": cfg.precision,
        "values": [_complex_obj(z) for z in values],
        "transform": [_complex_obj(z) for z in transform],
    }
    return payload, EXIT_OK


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


def _render_text(payload: dict, lines=None, prefix="") -> str:
    if lines is None:
        lines = []
        _render_text(payload, lines)
        return "\n".join(lines) + "\n"
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _render_text(value, lines, prefix=f"{name}.")
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                if isinstance(item, dict):
                    _render_text(item, lines, prefix=f"{name}[{idx}].")
                else:
                    lines.append(f"{name}[{idx}] = {item}")
        else:
            lines.append(f"{name} = {value}")
    return ""


def _emit(payload: dict, cfg: CliConfig) -> None:
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _render_text(payload)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(cfg: CliConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    if cfg.command != "dft" and (cfg.n is None or cfg.n < 1):
        _emit({"schema_version": SCHEMA_VERSION, "error": "InvalidN",
               "detail": f"n must be >= 1, got {cfg.n}"}, cfg)
        return EXIT_DOMAIN
    if cfg.command == "order" and (cfg.m is None or not 1 <= cfg.m <= cfg.n):
        _emit({"schema_version": SCHEMA_VERSION, "error": "InvalidM",
               "detail": f"m must satisfy 1 <= m <= n = {cfg.n}, got {cfg.m}"}, cfg)
        return EXIT_DOMAIN
    if cfg.precision < 32:
        _emit({"schema_version": SCHEMA_VERSION, "error": "InvalidPrecision",
               "detail": "precision must be at least 32 bits"}, cfg)
        return EXIT_DOMAIN
    try:
        payload, code = _COMMANDS[cfg.command](cfg)
    except CertificateFailure as exc:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "error": type(exc).__name__,
            "detail": str(exc),
            "failed_checks": exc.failed,
            "certificate": _certificate_payload(exc.certificate),
        }
        code = EXIT_NUMERICAL
    except NumericalError as exc:
        payload = {"schema_version": SCHEMA_VERSION,
                   "error": type(exc).__name__, "detail": str(exc)}
        code = EXIT_NUMERICAL
    except DomainError as exc:
        payload = {"schema_version": SCHEMA_VERSION,
                   "error": type(exc).__name__, "detail": str(exc)}
        code = EXIT_DOMAIN
    _emit(payload, cfg)
    return code


def parse_args(argv=None) -> CliConfig:
    args = _build_parser().parse_args(argv)
    return CliConfig(
        command=args.command,
        n=args.n,
        m=getattr(args, "m", None),
        c_re=getattr(args, "c_re", None),
        c_im=getattr(args, "c_im", None),
        precision=args.precision,
        format=args.format,
        input_path=getattr(args, "input_path", None),
        output_path=args.output_path,
        with_certificate=getattr(args, "certificate", False),
    )


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
