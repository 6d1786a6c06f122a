"""Workloads: seeded request streams, their execution and their checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A stream is a sequence of rounds, a
round a sequence of blocks, a block a list of requests.  The library only
ever sees the generated inputs; the seed stays here.

Cold workloads (``verify-cold``, ``scale``) issue in-process CLI commands.
Within a round no two requests share a solve index (n for even n, 2n for
odd n, since odd n is built from zeta(2n)), so every request pays for its own
solve; the module caches are emptied between rounds.  Rounds are stratified:
the solve indices are cut into ``STRATA`` contiguous ranges and each block
takes one index from each range, so any run of whole blocks has the same mix
of small and large n.

Warm workloads (``apply-warm``, ``roots-of-wide``) build zeta and the
twiddle tables for ``APPLY_NS`` in set-up and then only read the caches.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import checker

PRECISION = 128
STRATA = 7
APPLY_NS = (3, 5, 7, 16, 32, 64)
# One apply-warm block: two order queries per n in APPLY_NS and these DFT
# sizes, 23 requests.  Sorted by latency, the classes do not overlap (orders by
# n, then DFTs by size), so with this mix p50 falls in the middle of the
# n = 64 order queries and p90 in the middle of the 32-point DFTs, never at
# the edge of a class, where a few noisy requests would move it.
ORDERS_PER_N = 2
DFT_NS = (16,) * 7 + (32,) * 3 + (64,)


class LibraryMissing(Exception):
    """The library source is not in the checkout."""


@dataclass
class Library:
    """The modules of the library under test, looked up at call time so that
    a tracer can rebind their functions."""

    package: object
    modules: list

    def __getattr__(self, name):
        return getattr(self.package, name)

    def clear_caches(self) -> None:
        """Empty every module-level cache (the dicts named ``*_cache``)."""
        for mod in self.modules:
            for name, value in vars(mod).items():
                if name.endswith("_cache") and isinstance(value, dict):
                    value.clear()


def load_library(root: Path) -> Library:
    """Import ``unityroot`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "unityroot" / "__init__.py").is_file():
        raise LibraryMissing(f"no unityroot package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("unityroot")
    if Path(package.__file__).resolve().parent != src / "unityroot":
        raise LibraryMissing(f"unityroot was imported from {package.__file__}")
    modules = [importlib.import_module(f"unityroot.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    return Library(package, modules)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Request:
    kind: str            # "cli", "dft", "order" or "roots_of"
    n: int
    data: tuple          # exact inputs, kind-specific
    index: int = 0       # solve index of a cold CLI request


@dataclass(slots=True)
class Outcome:
    kind: str
    status: str          # "ok", "wrong", "error" or "crash"
    seconds: float
    bits: float | None = None
    detail: str = ""


def solve_index(n: int) -> int:
    return n if n % 2 == 0 else 2 * n


def full_width(rng: random.Random) -> int:
    """Signed integer with exactly PRECISION significant bits."""
    mant = rng.getrandbits(PRECISION - 1) | (1 << (PRECISION - 1))
    return mant if rng.random() < 0.5 else -mant


def materialize(lib: Library, req: Request):
    """Library objects for a request's exact inputs (built before timing)."""
    hp = lambda num, exp: lib.HPReal.from_int(num, PRECISION).scale2(exp)
    if req.kind == "dft":
        return [lib.HPComplex(hp(a, ea), hp(b, eb)) for a, ea, b, eb in req.data]
    if req.kind == "roots_of":
        u, v, exp = req.data
        return lib.HPComplex(hp(u, exp), hp(v, exp))
    return None


def execute(lib: Library, req: Request, inputs, out_path: str):
    """The timed part of a request: calls into the library only."""
    if req.kind == "cli":
        command, n = req.data
        return lib.cli.main([command, "--n", str(n), "--output", out_path])
    if req.kind == "dft":
        forward = lib.dft.dft_forward(inputs)
        return forward, lib.dft.dft_inverse(forward)
    if req.kind == "order":
        (m,) = req.data
        w = lib.zeta.construct_zeta(req.n, PRECISION).as_complex().pow(m)
        return lib.primitivity.multiplicative_order(w, req.n)
    if req.kind == "roots_of":
        return lib.primitivity.roots_of(inputs, req.n, PRECISION)
    raise ValueError(f"unknown request kind {req.kind!r}")


def check(req: Request, result, out_path: str) -> tuple:
    """Status and relative error of a returned result, against references
    independent of the library."""
    if req.kind == "cli":
        if result != 0:
            return "error", None, f"exit code {result}"
        command, n = req.data
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        fn = {"verify": checker.check_verify_payload, "roots": checker.check_unity_payload,
              "zeta": checker.check_zeta_payload}[command]
        ok, err = fn(n, payload)
    elif req.kind == "dft":
        forward, back = result
        xs = [checker.MP.mpc(checker.dyadic(a, ea), checker.dyadic(b, eb))
              for a, ea, b, eb in req.data]
        ok, err = checker.check_dft(xs, [checker.hp_complex(z) for z in forward],
                                    [checker.hp_complex(z) for z in back])
    elif req.kind == "order":
        ok, err = checker.check_order(req.n, req.data[0], result.order, result.is_primitive)
    else:
        u, v, exp = req.data
        c = checker.MP.mpc(checker.dyadic(u, exp), checker.dyadic(v, exp))
        ok, err = checker.check_roots(c, req.n, [checker.hp_complex(z) for z in result.roots])
    return ("ok" if ok else "wrong"), checker.accuracy_bits(err), ""


def run_request(lib: Library, req: Request, out_path: str, clock,
                around=nullcontext) -> Outcome:
    """Execute, time and check one request.  Every exception is caught: a
    ``UnityRootError`` (or a CLI usage exit) is an error, anything else that
    escapes the public API or ``cli.main`` is a crash.  ``around()`` is
    entered for the library call only, not for building inputs or checking."""
    inputs = materialize(lib, req)
    t0 = clock()
    try:
        with around():
            result = execute(lib, req, inputs, out_path)
    except lib.UnityRootError as exc:
        return Outcome(req.kind, "error", clock() - t0, None, f"{type(exc).__name__}: {exc}")
    except SystemExit as exc:
        return Outcome(req.kind, "error", clock() - t0, None, f"SystemExit: {exc.code}")
    except Exception as exc:  # noqa: BLE001 - a crash is a measured outcome
        return Outcome(req.kind, "crash", clock() - t0, None, f"{type(exc).__name__}: {exc}")
    seconds = clock() - t0
    try:
        status, bits, detail = check(req, result, out_path)
    except Exception as exc:  # noqa: BLE001 - malformed output is a wrong output
        status, bits, detail = "wrong", None, f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(req.kind, status, seconds, bits if status == "ok" else None, detail)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def check_cold_round(blocks: list) -> None:
    """No two requests of a round may share a solve index."""
    seen = set()
    for block in blocks:
        for req in block:
            if req.index in seen:
                raise ValueError(f"solve index {req.index} repeats within a round")
            seen.add(req.index)


def cold_rounds(pool: dict, rng: random.Random):
    """Stratified rounds over ``pool`` (solve index -> candidate commands)."""
    indices = sorted(pool)
    while True:
        strata = [indices[i * len(indices) // STRATA:(i + 1) * len(indices) // STRATA]
                  for i in range(STRATA)]
        for stratum in strata:
            rng.shuffle(stratum)
        blocks = []
        for b in range(max(len(s) for s in strata)):
            block = []
            for stratum in strata:
                if b < len(stratum):
                    command, n = rng.choice(pool[stratum[b]])
                    block.append(Request("cli", n, (command, n), stratum[b]))
            rng.shuffle(block)
            blocks.append(block)
        check_cold_round(blocks)
        yield blocks


def _pool(commands) -> dict:
    pool: dict = {}
    for command, n, index in commands:
        pool.setdefault(index, []).append((command, n))
    return pool


# N = 0 or 1 (mod 4): even N have index N = 0 (mod 4), odd N index 2N = 2 (mod 4),
# so no two share a solve index.  The set is the same for every seed (the seed
# only orders it), which keeps the size mix, and hence the figures, steady
# from run to run; it holds both parities, the powers of two and the largest
# index 298 of the range.
VERIFY_POOL = _pool(("verify", n, solve_index(n)) for n in range(5, 151) if n % 4 in (0, 1))
SCALE_POOL = _pool([("roots", n, n) for n in range(307, 1025)]
                   + [("zeta", n, 2 * n) for n in range(155, 512, 2)])


def apply_rounds(rng: random.Random):
    """One block per round: ORDERS_PER_N order queries for every n in
    APPLY_NS and a DFT round trip for every size in DFT_NS, shuffled."""
    while True:
        block = [Request("order", n, (rng.randint(1, n),))
                 for n in APPLY_NS for _ in range(ORDERS_PER_N)]
        for n in DFT_NS:
            vec = tuple((full_width(rng), -PRECISION - rng.randrange(4),
                         full_width(rng), -PRECISION - rng.randrange(4))
                        for _ in range(n))
            block.append(Request("dft", n, vec))
        rng.shuffle(block)
        yield [block]


def roots_of_rounds(rng: random.Random):
    """One block per round: roots_of(c, n) for every n in APPLY_NS, with
    log2|c| uniform over [-2000, 2000] and a uniformly seeded argument."""
    while True:
        block = []
        for n in APPLY_NS:
            while True:  # |u + iv| in [2^126, 2^127.5]: |c| within 2^(L-1)..2^(L+0.5)
                u = rng.getrandbits(PRECISION) - (1 << (PRECISION - 1))
                v = rng.getrandbits(PRECISION) - (1 << (PRECISION - 1))
                if u * u + v * v >= 1 << (2 * PRECISION - 4):
                    break
            block.append(Request("roots_of", n, (u, v, rng.randint(-2000, 2000) - PRECISION + 1)))
        rng.shuffle(block)
        yield [block]


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _warm_cli(command: str):
    # n = 3 solves for index 6, which no cold pool holds
    def warm_up(lib: Library, out_path: str) -> None:
        lib.cli.main([command, "--n", "3", "--output", out_path])
    return warm_up


def _warm_tables(lib: Library, out_path: str) -> None:
    for n in APPLY_NS:
        lib.zeta.construct_zeta(n, PRECISION)
        lib.dft.twiddle_table(n, PRECISION)


@dataclass
class Workload:
    stream: Callable     # random.Random -> iterator of rounds
    warm_up: Callable    # (lib, out_path): the lazy initialisation a user pays once
    cold: bool           # caches emptied between rounds

    def rounds(self, seed: int):
        return self.stream(random.Random(seed))


# Why each exists: README.md; the gated ones also in BENCHMARK.json.
WORKLOADS = {
    "verify-cold": Workload(lambda rng: cold_rounds(VERIFY_POOL, rng), _warm_cli("verify"),
                            cold=True),
    "apply-warm": Workload(apply_rounds, _warm_tables, cold=False),
    "scale": Workload(lambda rng: cold_rounds(SCALE_POOL, rng), _warm_cli("roots"), cold=True),
    "roots-of-wide": Workload(roots_of_rounds, _warm_tables, cold=False),
}
