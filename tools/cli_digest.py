"""SHA-256 digests of the CLI's output over a fixed set of commands, and a
comparison of two such runs in units of each command's last bit.

    python tools/cli_digest.py [--dump OUT.json]
    python tools/cli_digest.py --compare OLD.json NEW.json

The first form prints one line per command group: the group name, the
number of commands and the SHA-256 over every command's exit code and
standard output, in order.  Run it on two checkouts to show that a change
leaves the output byte-identical.  The groups are `verify`, `roots` and
`zeta --certificate` for every n in 1..150, five `roots-of` targets, four
`dft` inputs, `low-precision`: `verify` and `roots` at (n, precision) =
(1024, 32) and (2048, 32), then `roots --n 32 --precision 33`,
`zeta-precisions`: `zeta` at precisions 32, 53 and 256 for every n in 1..64
and n = 4095, 4096, and `large-n`: `roots` at (n, precision) = (32768, 32),
(32767, 32) and (16384, 128), `roots-of 2` at (16383, 32) and
(32768, 32) and `roots-of -7+3i` at (32767, 32), where the margins of the
root sets are tightest, and `order` at (n, m, precision) =
(1000, 999, 32), where zeta**m formed by products of a rounded zeta missed
its tolerance.  `errors-and-text` runs every command once with
`--format text`, then the error paths: invalid n (once more as text), m
and precision, `roots-of` targets that are zero, malformed or out of
range, `dft` inputs whose length disagrees with their `n` or with `--n`,
malformed JSON and a missing file, and `zeta --certificate` and `verify`
at n = 8192, precision 32, which exited 2 (a `CertificateFailure`, a
failed `verify`) until the arc exclusion's signed radial term.  No output
in it names a temporary path.  With `--dump` it also writes each command's
output to a JSON file.  `run_groups` and `sha256` give the same digests to
a caller in the same process, as the test suite's byte-identity check.

`--compare` reads two dumps and prints, for each group, the number of
commands whose output changed and the largest change of the numbers under
each JSON key, then one such line per changed command.  A change is given in
units of 2**-precision of its command, the last bit of a value of scale 1/2
to 1, such as a root of unity's component; the precision is read from the
command's `--precision` flag (128 without one).  A `residual_bound` scales
with |c| 2**-precision, not with a component, so its change is given
instead as log2(new/old) in bits, signed, largest in magnitude.  A change outside the
numbers (a key, a flag, an exit code, a count of values) is reported as a
shape change.

The script puts the `src` directory of its own checkout first on the
import path, so it needs no PYTHONPATH.
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
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOTS_OF = [("3", "-8", "0"), ("5", "2", "3"), ("7", "0.5", "-0.25"),
            ("12", "1e10", "0"), ("2", "0", "-1")]
DFT_NS = (4, 8, 16, 33)
LOW_PRECISION = [(cmd, n, "32") for n in ("1024", "2048")
                 for cmd in ("verify", "roots")] + [("roots", "32", "33")]
ZETA_PRECISIONS = [(str(n), precision) for precision in ("32", "53", "256")
                   for n in [*range(1, 65), 4095, 4096]]
LARGE_N = [["roots", "--n", "32768", "--precision", "32"],
           ["roots", "--n", "32767", "--precision", "32"],
           ["roots", "--n", "16384"],
           ["roots-of", "--n", "16383", "--c-re", "2", "--precision", "32"],
           ["roots-of", "--n", "32768", "--c-re", "2", "--precision", "32"],
           ["roots-of", "--n", "32767", "--c-re", "-7", "--c-im", "3",
            "--precision", "32"],
           ["order", "--n", "1000", "--m", "999", "--precision", "32"]]
TEXT = [["roots", "--n", "5"], ["zeta", "--n", "12", "--certificate"],
        ["verify", "--n", "12"], ["order", "--n", "6", "--m", "5"],
        ["roots-of", "--n", "3", "--c-re", "-8", "--c-im", "1"]]
ERRORS = [["zeta", "--n", "0"], ["zeta", "--n", "0", "--format", "text"],
          ["roots", "--n", "32769"],
          ["verify", "--n", "16385"], ["order", "--n", "6", "--m", "0"],
          ["order", "--n", "6", "--m", "7"],
          ["zeta", "--n", "6", "--precision", "16"],
          *(["roots-of", "--n", "3", "--c-re", c]
            for c in ("0", "abc", "1e999999999"))]
NUMERICAL = [["zeta", "--n", "8192", "--precision", "32", "--certificate"],
             ["verify", "--n", "8192", "--precision", "32"]]

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
KEY = re.compile(r'"([^"]+)":|^([\w.\[\]]+) = ')
# keys whose changes are given as log2(new/old) in bits
IN_BITS = {"residual_bound"}


def _output(argv: list) -> str:
    from unityroot import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n{buf.getvalue()}"


def _file(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _dft_input(directory: str, i: int, n: int) -> str:
    values = [{"re": f"{(k * 7 + i) % 11 - 5}.{k}", "im": f"-{k % 3}.25"}
              for k in range(n)]
    return _file(directory, f"dft{n}.json",
                 json.dumps({"n": n, "values": values}))


def _errors_and_text(tmp: str) -> list:
    one = [{"re": "1", "im": "0"}]
    return [*([*argv, "--format", "text"] for argv in TEXT),
            ["dft", "--input", _dft_input(tmp, 0, 4), "--format", "text"],
            *ERRORS,
            ["dft", "--input", _file(tmp, "declared.json",
                                     json.dumps({"n": 3, "values": one}))],
            ["dft", "--n", "2", "--input",
             _file(tmp, "one.json", json.dumps({"values": one}))],
            ["dft", "--input", _file(tmp, "malformed.json", '{"values": [')],
            ["dft", "--input", "/nonexistent.json"],
            *NUMERICAL]


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
        "zeta-precisions": [["zeta", "--n", n, "--precision", precision]
                            for n, precision in ZETA_PRECISIONS],
        "errors-and-text": _errors_and_text(tmp),
        "large-n": LARGE_N,
    }


def run_groups(names=None):
    """Yield (name, [(label, output)]) for every group, or for the groups
    in `names`, in order: each command's label (its argv, with the dft
    inputs, which live in a temporary directory, by file name) and its
    exit code and standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, commands in _groups(tmp).items():
            if names is None or name in names:
                yield name, [(" ".join(os.path.basename(a) for a in argv),
                              _output(argv)) for argv in commands]


def sha256(outputs: list) -> str:
    """The SHA-256 over the outputs of one group, in order."""
    sha = hashlib.sha256()
    for _, out in outputs:
        sha.update(out.encode())
    return sha.hexdigest()


def digest(dump_path: str | None) -> None:
    dump = {}
    for name, outputs in run_groups():
        dump[name] = [{"command": label, "output": out} for label, out in outputs]
        print(name, len(outputs), sha256(outputs), flush=True)
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=0)


def _precision(command: str) -> int:
    """The value of the command's --precision flag, 128 without one."""
    words = command.split()
    if "--precision" in words[:-1]:
        return int(words[words.index("--precision") + 1])
    return 128


def _format(change: dict) -> str:
    return ", ".join(f"{key} {size:+.3g} bits" if key in IN_BITS
                     else f"{key} {size:.3g}"
                     for key, size in sorted(change.items()))


def _numbers(text: str) -> list:
    """(key, number) for every number in the output, keyed by the JSON key
    or text-format name of its line or, for a list element, of the list."""
    key, out = "", []
    for line in text.splitlines():
        match = KEY.search(line)
        if match:
            key, line = match.group(1) or match.group(2), line[match.end():]
        out += [(key, num) for num in NUMBER.findall(line)]
    return out


def _size(key: str, a: str, b: str, precision: int) -> float:
    """The change from a to b: log2(b/a) in bits for a key of IN_BITS, else
    |b - a| in units of 2**-precision."""
    old, new = Fraction(a), Fraction(b)
    if key not in IN_BITS:
        return float(abs(new - old) * 2 ** precision)
    if old and new:
        # log1p keeps the moves of a few parts in 2**60 that log2 rounds to 0
        return math.log1p(float(new / old - 1)) / math.log(2)
    return math.copysign(math.inf, new - old)


def _change(old: str, new: str, precision: int):
    """None if the outputs differ outside their numbers, else the largest
    change of each key's numbers (see :func:`_size`), largest in magnitude."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst: dict = {}
    for (key, a), (_, b) in zip(_numbers(old), _numbers(new)):
        if a != b:
            worst[key] = _larger(worst.get(key, 0.0), _size(key, a, b, precision))
    return worst


def _larger(x: float, y: float) -> float:
    return y if abs(y) > abs(x) else x


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
            change = _change(b["output"], a["output"],
                             _precision(a["command"]))
            if change is None:
                shape += 1
                lines.append(f"  {a['command']}: shape changed")
                continue
            for item, size in change.items():
                worst[item] = _larger(worst.get(item, 0.0), size)
            lines.append(f"  {a['command']}: {_format(change)}")
        print(f"{name}: {len(lines)} of {len(before)} changed, {shape} shape "
              f"changes; largest, in units of 2**-precision or in bits: "
              f"{_format(worst) or 'none'}")
        for line in lines:
            print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="OUT.json",
                        help="also write every command's output to OUT.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"),
                        help="compare two dumps instead of running the CLI")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if args.compare:
        compare(*args.compare)
    else:
        digest(args.dump)


if __name__ == "__main__":
    main()
