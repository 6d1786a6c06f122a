"""SHA-256 digests of the CLI's output over a fixed set of commands.

    PYTHONPATH=src python tools/cli_digest.py

Prints one line per command group: the group name, the number of commands
and the SHA-256 over every command's exit code and standard output, in
order.  Run it on two checkouts to show that a change leaves the output
byte-identical.  The groups are `verify`, `roots` and `zeta --certificate`
for every n in 1..150, five `roots-of` targets and four `dft` inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from unityroot import cli

ROOTS_OF = [("3", "-8", "0"), ("5", "2", "3"), ("7", "0.5", "-0.25"),
            ("12", "1e10", "0"), ("2", "0", "-1")]
DFT_NS = (4, 8, 16, 33)


def _output(argv: list) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n{buf.getvalue()}".encode()


def _dft_input(directory: str, i: int, n: int) -> str:
    path = os.path.join(directory, f"dft{n}.json")
    values = [{"re": f"{(k * 7 + i) % 11 - 5}.{k}", "im": f"-{k % 3}.25"}
              for k in range(n)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": n, "values": values}, handle)
    return path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        groups = {
            "verify": [["verify", "--n", str(n)] for n in range(1, 151)],
            "roots": [["roots", "--n", str(n)] for n in range(1, 151)],
            "zeta-cert": [["zeta", "--n", str(n), "--certificate"]
                          for n in range(1, 151)],
            "roots-of": [["roots-of", "--n", n, "--c-re", re, "--c-im", im]
                         for n, re, im in ROOTS_OF],
            "dft": [["dft", "--input", _dft_input(tmp, i, n)]
                    for i, n in enumerate(DFT_NS)],
        }
        for name, commands in groups.items():
            digest = hashlib.sha256()
            for argv in commands:
                digest.update(_output(argv))
            print(name, len(commands), digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
