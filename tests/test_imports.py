"""Module boundaries inside the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import unityroot


def test_no_private_name_imported_across_modules():
    # a private helper shared by two modules belongs behind a public name in
    # the module that owns it
    found = []
    for path in sorted(Path(unityroot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("unityroot"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert not found


# the construction and the certificate use field operations and square roots
# only; the series oracle is the one place a transcendental may appear
_TRANSCENDENTAL = {"sin", "cos", "tan", "asin", "acos", "atan", "atan2", "exp",
                   "expm1", "log", "log2", "log10", "log1p", "pi", "tau", "e"}
_BANNED_NAMES = {"math": _TRANSCENDENTAL,
                 "numpy": _TRANSCENDENTAL | {"angle", "fft"}}
_BANNED_MODULES = {"cmath", "mpmath"}


def _banned_module(dotted: str) -> bool:
    # cmath, mpmath, or a transcendental submodule such as numpy.fft
    root, *rest = dotted.split(".")
    return root in _BANNED_MODULES or bool(set(rest) & _BANNED_NAMES.get(root, set()))


def test_no_transcendental_outside_the_oracle():
    found = []
    for path in sorted(Path(unityroot.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # local name of math or numpy -> the names it must not supply
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if _banned_module(alias.name):
                        found.append(f"{where} import {alias.name}")
                    elif root in _BANNED_NAMES:
                        aliases[alias.asname or root] = _BANNED_NAMES[root]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                root = (node.module or "").split(".")[0]
                banned = _BANNED_NAMES.get(root, set())
                found += [f"{where} from {node.module} import {alias.name}"
                          for alias in node.names
                          if _banned_module(node.module) or alias.name in banned
                          or (banned and alias.name == "*")]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.attr in aliases.get(node.value.id, ())):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not found


def test_no_module_imports_numpy():
    # every solve is field operations and square roots on Python integers;
    # numpy is a test-side dependency only
    found = []
    for path in sorted(Path(unityroot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [path.name for name in names if name.split(".")[0] == "numpy"]
    assert found == []


# every CLI command in a fresh interpreter, then one solve_binomial: none of
# them loads numpy
_COLD_PROBE = """
import json, sys
from pathlib import Path
import unityroot
from unityroot import HPComplex, cli, solve_binomial
out = Path(sys.argv[1])
vec = out / "vec.json"
vec.write_text(json.dumps({"values": [{"re": "1", "im": "0"}, {"re": "0", "im": "1"},
                                      {"re": "-0.5", "im": "0"}]}))
for argv in (["verify", "--n", "12"], ["roots", "--n", "8"],
             ["zeta", "--n", "7", "--certificate"], ["order", "--n", "6", "--m", "5"],
             ["roots-of", "--n", "3", "--c-re", "-8"], ["dft", "--input", str(vec)]):
    assert cli.main(argv + ["--output", str(out / "out.json")]) == 0, argv
    assert "numpy" not in sys.modules, argv
assert len(solve_binomial(HPComplex.from_int(-8), 3).roots) == 3
assert "numpy" not in sys.modules
print("ok")
"""


def test_cli_commands_run_without_numpy(tmp_path):
    src = str(Path(unityroot.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _COLD_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
