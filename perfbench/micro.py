"""Per-operation timings of HPReal and HPComplex on seeded full-width
128-bit operands.

Each figure is the median over ``REPEATS`` timed passes of the time per
operation, with every pass long enough (``PASS_S``) that timer resolution
does not matter.  The loop overhead of Python itself is included, as it is
for any caller.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from workloads import PRECISION, full_width

OPERANDS = 64
REPEATS = 5
PASS_S = 0.02


def _time_per_op(fn, args: list) -> float:
    t0 = perf_counter()
    for a in args:
        fn(*a)
    est = max((perf_counter() - t0) / len(args), 1e-9)
    loops = max(1, int(PASS_S / (est * len(args))) + 1)
    passes = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        passes.append((perf_counter() - t0) / (loops * len(args)))
    return statistics.median(passes)


def run(lib, seed: int) -> dict:
    """Microsecond timings keyed by metric name."""
    HPReal, HPComplex = lib.HPReal, lib.HPComplex
    rng = random.Random(seed ^ 0x5EED)

    def real(positive=False):
        num = full_width(rng)
        return HPReal.from_int(abs(num) if positive else num, PRECISION).scale2(
            -PRECISION - rng.randrange(4))

    def cx():
        return HPComplex(real(), real())

    def unit_cx():
        z = cx()
        return z / abs(z)

    reals = [(real(), real()) for _ in range(OPERANDS)]
    positives = [(real(positive=True),) for _ in range(OPERANDS)]
    singles = [(real(),) for _ in range(OPERANDS)]
    pairs = [(cx(), cx()) for _ in range(OPERANDS)]
    units = [(unit_cx(),) for _ in range(OPERANDS // 4)]
    cases = {
        "hpreal.mul_us": (lambda a, b: a * b, reals),
        "hpreal.add_us": (lambda a, b: a + b, reals),
        "hpreal.div_us": (lambda a, b: a / b, reals),
        "hpreal.sqrt_us": (lambda a: a.sqrt(), positives),
        "hpreal.decimal_us": (lambda a: a.decimal(), singles),
        "hpcomplex.mul_us": (lambda a, b: a * b, pairs),
        "hpcomplex.div_us": (lambda a, b: a / b, pairs),
        "hpcomplex.abs_us": (lambda a, b: abs(a), pairs),
        "hpcomplex.pow255_us": (lambda a: a.pow(255), units),
    }
    return {name: _time_per_op(fn, args) * 1e6 for name, (fn, args) in cases.items()}
