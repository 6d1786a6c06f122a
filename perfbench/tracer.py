"""Spans around the library's public functions, installed from outside.

``Tracer.install`` rebinds every public function of the traced modules, in
every module namespace that holds it, to a wrapper that records a span:
name, layer, start, end, parent span and request id.  The arithmetic
operators of ``HPReal`` and ``HPComplex`` are wrapped too, but they only add
to counters of the innermost open span (op count and time, taken at the
outermost operator of each type so nested calls are not counted twice).
Spans stay in memory; ``uninstall`` restores every original binding.

A span's self time is its duration minus its direct children and minus the
HP operator time recorded while it was the innermost span, so self times
plus HP time add up to the duration of the root spans.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from time import perf_counter

TRACED_LAYERS = ("solver", "zeta", "descent", "primitivity", "dft", "oracle", "cli")

HPREAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__abs__", "sqrt", "scale2",
              "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
HPCOMPLEX_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__truediv__", "conj", "abs2", "__abs__", "pow", "__eq__")

# span record layout
NAME, LAYER, START, END, PARENT, REQUEST = range(6)
R_OPS, R_S, C_OPS, C_S, R_IN_C_S = range(6, 11)


def new_span(name, layer, start, parent, request) -> list:
    return [name, layer, start, None, parent, request, 0, 0.0, 0, 0.0, 0.0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list = []
        self._orphan = new_span("untraced", "bench", 0.0, None, None)
        self._cur = self._orphan
        self._depth = [0, 0]  # open HPReal, HPComplex operators
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = new_span(name, layer, perf_counter(), parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._cur = span
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()
        self._cur = self.spans[self._stack[-1]] if self._stack else self._orphan

    @contextmanager
    def span(self, name: str, layer: str):
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def wrap_function(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    # -- HP operators ----------------------------------------------------------

    def _wrap_op(self, fn, real: bool):
        """Count every call; time only the outermost call of each type."""
        tracer = self
        kind = 0 if real else 1
        ops, secs = (R_OPS, R_S) if real else (C_OPS, C_S)

        def op(*args):
            depth = tracer._depth
            if depth[kind]:
                tracer._cur[ops] += 1
                return fn(*args)
            depth[kind] = 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                depth[kind] = 0
                cur = tracer._cur
                cur[ops] += 1
                cur[secs] += dt
                if real and depth[1]:
                    cur[R_IN_C_S] += dt

        return op

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, modules: list) -> None:
        """Wrap the public functions of the traced layers and the HP
        operators.  ``modules`` are all loaded modules of ``package``."""
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}
        for layer in TRACED_LAYERS:
            mod = by_name[layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self.wrap_function(fn, f"{layer}.{name}", layer)
        for mod in [package, *modules]:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(mod, name, wrappers[id(value)])
        for cls, ops, real in ((by_name["hpreal"].HPReal, HPREAL_OPS, True),
                               (by_name["hpcomplex"].HPComplex, HPCOMPLEX_OPS, False)):
            for op in ops:
                self._patch(cls, op, self._wrap_op(vars(cls)[op], real))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# derived figures
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list:
    """Self time of each span: duration minus direct children minus the HP
    operator time recorded directly in it."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] - hp_time(s) for i, s in enumerate(spans)]


def hp_time(span: list) -> float:
    """HP operator time recorded directly in a span (complex ops plus real
    ops outside complex ops)."""
    return span[C_S] + span[R_S] - span[R_IN_C_S]


def outermost(spans: list, names: tuple) -> list:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            out.append(s)
    return out


def total(spans: list) -> float:
    return sum(s[END] - s[START] for s in spans)
