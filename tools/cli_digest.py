"""SHA-256 digests of the CLI's output over a fixed set of commands, and an
ulp-level comparison of two such runs.

    PYTHONPATH=src python tools/cli_digest.py [--dump OUT.json]
    python tools/cli_digest.py --compare OLD.json NEW.json

The first form prints one line per command group: the group name, the
number of commands and the SHA-256 over every command's exit code and
standard output, in order.  Run it on two checkouts to show that a change
leaves the output byte-identical.  The groups are `verify`, `roots` and
`zeta --certificate` for every n in 1..150, five `roots-of` targets, four
`dft` inputs, and `low-precision`: `verify` and `roots` at (n, precision) =
(1024, 32) and (2048, 32), then `roots --n 32 --precision 33`.  With `--dump`
it also writes each command's output to a JSON file.

`--compare` reads two dumps and prints, for each group, the number of
commands whose output changed and the largest change of the numbers under
each JSON key, then one such line per changed command.  A change is given in
ulps of a 128-bit value at the scale of the larger of the two values,
2**(e - 127) for a value in [2**e, 2**(e + 1)) (2**-128 for values of scale
1/2 to 1).  Below scale 2**-64 (residual bounds, components that are zero up
to rounding) it is given as the absolute difference |d| instead.  A change
outside the numbers (a key, a flag, an exit code, a count of values)
is reported as a shape change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
from fractions import Fraction

ROOTS_OF = [("3", "-8", "0"), ("5", "2", "3"), ("7", "0.5", "-0.25"),
            ("12", "1e10", "0"), ("2", "0", "-1")]
DFT_NS = (4, 8, 16, 33)
LOW_PRECISION = [(cmd, n, "32") for n in ("1024", "2048")
                 for cmd in ("verify", "roots")] + [("roots", "32", "33")]

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
KEY = re.compile(r'"([^"]+)":')
SMALL = -64  # binary exponent below which a change is reported as absolute


def _output(argv: list) -> str:
    from unityroot import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n{buf.getvalue()}"


def _dft_input(directory: str, i: int, n: int) -> str:
    path = os.path.join(directory, f"dft{n}.json")
    values = [{"re": f"{(k * 7 + i) % 11 - 5}.{k}", "im": f"-{k % 3}.25"}
              for k in range(n)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": n, "values": values}, handle)
    return path


def _groups(tmp: str) -> dict:
    return {
        "verify": [["verify", "--n", str(n)] for n in range(1, 151)],
        "roots": [["roots", "--n", str(n)] for n in range(1, 151)],
        "zeta-cert": [["zeta", "--n", str(n), "--certificate"]
                      for n in range(1, 151)],
        "roots-of": [["roots-of", "--n", n, "--c-re", re_, "--c-im", im]
                     for n, re_, im in ROOTS_OF],
        "dft": [["dft", "--input", _dft_input(tmp, i, n)]
                for i, n in enumerate(DFT_NS)],
        "low-precision": [[cmd, "--n", n, "--precision", precision]
                          for cmd, n, precision in LOW_PRECISION],
    }


def digest(dump_path: str | None) -> None:
    dump = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, commands in _groups(tmp).items():
            sha = hashlib.sha256()
            outputs = []
            for argv in commands:
                out = _output(argv)
                sha.update(out.encode())
                # the dft inputs live in a temporary directory
                label = " ".join(os.path.basename(a) for a in argv)
                outputs.append({"command": label, "output": out})
            dump[name] = outputs
            print(name, len(commands), sha.hexdigest(), flush=True)
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=0)


def _ulps(a: Fraction, b: Fraction) -> tuple:
    """(kind, size) of the change from a to b: ("ulp", |a - b| in ulps of a
    128-bit value at the scale of max(|a|, |b|)) when that scale is at least
    SMALL, else ("abs", log2 |a - b|): a bound or a component that is zero up
    to rounding has no meaningful relative scale."""
    top = max(abs(a), abs(b))
    e = top.numerator.bit_length() - top.denominator.bit_length()
    if Fraction(2) ** e > top:
        e -= 1
    if e < SMALL:
        return "abs", math.log2(abs(a - b))
    return "ulp", float(abs(a - b) / Fraction(2) ** (e - 127))


def _format(change: dict) -> str:
    return ", ".join(f"{key} {size:.3g} ulp" if kind == "ulp"
                     else f"{key} |d| 2^{size:.1f}"
                     for (key, kind), size in sorted(change.items()))


def _numbers(text: str) -> list:
    """(key, number) for every number in the output, keyed by the JSON key
    of its line or, for a list element, of the list."""
    key, out = "", []
    for line in text.splitlines():
        match = KEY.search(line)
        if match:
            key, line = match.group(1), line[match.end():]
        out += [(key, num) for num in NUMBER.findall(line)]
    return out


def _change(old: str, new: str):
    """None if the outputs differ outside their numbers, else the largest
    change of each key's numbers, by (key, kind) as :func:`_ulps` reports."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst: dict = {}
    for (key, a), (_, b) in zip(_numbers(old), _numbers(new)):
        if a != b:
            kind, size = _ulps(Fraction(a), Fraction(b))
            worst[key, kind] = max(worst.get((key, kind), -math.inf), size)
    return worst


def compare(old_path: str, new_path: str) -> None:
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for name, before in old.items():
        after = new.get(name, [])
        if [c["command"] for c in before] != [c["command"] for c in after]:
            print(f"{name}: the command lists differ")
            continue
        lines, worst, shape = [], {}, 0
        for b, a in zip(before, after):
            if b["output"] == a["output"]:
                continue
            change = _change(b["output"], a["output"])
            if change is None:
                shape += 1
                lines.append(f"  {a['command']}: shape changed")
                continue
            for item, size in change.items():
                worst[item] = max(worst.get(item, -math.inf), size)
            lines.append(f"  {a['command']}: {_format(change)}")
        print(f"{name}: {len(lines)} of {len(before)} changed, {shape} shape "
              f"changes; largest: {_format(worst) or 'none'}")
        for line in lines:
            print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="OUT.json",
                        help="also write every command's output to OUT.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"),
                        help="compare two dumps instead of running the CLI")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        digest(args.dump)


if __name__ == "__main__":
    main()
