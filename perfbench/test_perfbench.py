"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import checker
import run
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lib():
    return wl.load_library(ROOT)


def _c(lib, u, v, exp):
    hp = lambda x: lib.HPReal.from_int(x, 128).scale2(exp)
    return lib.HPComplex(hp(u), hp(v))


# -- checker --------------------------------------------------------------------


def test_checker_accepts_roots_and_rejects_a_perturbed_root(lib):
    u, v, exp = 3 << 120, -5 << 119, -123
    rs = lib.roots_of(_c(lib, u, v, exp), 5)
    c = checker.MP.mpc(checker.dyadic(u, exp), checker.dyadic(v, exp))
    roots = [checker.hp_complex(z) for z in rs.roots]
    ok, err = checker.check_roots(c, 5, roots)
    assert ok and checker.accuracy_bits(err) > 100
    roots[2] += checker.MP.ldexp(1, -40)
    assert not checker.check_roots(c, 5, roots)[0]
    roots[2] = roots[3]  # a duplicated root has small residuals but breaks the bijection
    assert not checker.check_roots(c, 5, roots)[0]


def test_checker_rejects_a_perturbed_zeta_payload():
    mp = checker.MP
    n = 12
    payload = {"n": n, "a": mp.nstr(mp.cos(2 * mp.pi / n), 50),
               "b": mp.nstr(mp.sin(2 * mp.pi / n), 50), "r": mp.nstr(2 * mp.sin(mp.pi / n), 50)}
    assert checker.check_zeta_payload(n, payload)[0]
    payload["b"] = mp.nstr(mp.sin(2 * mp.pi / n) + mp.ldexp(1, -90), 50)
    assert not checker.check_zeta_payload(n, payload)[0]


def test_checker_checks_the_dft_round_trip(lib):
    rng = random.Random(3)
    data = tuple((wl.full_width(rng), -130, wl.full_width(rng), -129) for _ in range(8))
    req = wl.Request("dft", 8, data)
    result = wl.execute(lib, req, wl.materialize(lib, req), "")
    assert wl.check(req, result, "")[0] == "ok"
    forward, back = result
    back = list(back)
    back[1] = back[1] + lib.HPComplex(lib.HPReal.pow2(-80), lib.HPReal.zero())
    assert wl.check(req, (forward, back), "")[0] == "wrong"


def test_checker_requires_the_exact_order():
    assert checker.check_order(12, 8, 3, False)[0]
    assert not checker.check_order(12, 8, 6, False)[0]
    assert not checker.check_order(12, 5, 12, False)[0]


# -- outcome classification --------------------------------------------------------


class _Refused(Exception):
    pass


def _stub(main):
    return SimpleNamespace(cli=SimpleNamespace(main=main), UnityRootError=_Refused)


def _raise(exc):
    def main(argv):
        raise exc
    return main


def test_raw_exception_counts_as_crash_and_package_error_as_error():
    req = wl.Request("cli", 400, ("roots", 400), 400)
    crash = wl.run_request(_stub(_raise(OverflowError("math range error"))), req, "", lambda: 0.0)
    assert crash.status == "crash" and "OverflowError" in crash.detail
    error = wl.run_request(_stub(_raise(_Refused("no"))), req, "", lambda: 0.0)
    assert error.status == "error"
    exit_code = wl.run_request(_stub(lambda argv: 2), req, "", lambda: 0.0)
    assert exit_code.status == "error"


def test_unreadable_output_counts_as_wrong(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("{}")
    req = wl.Request("cli", 6, ("verify", 6), 6)
    outcome = wl.run_request(_stub(lambda argv: 0), req, str(out), lambda: 0.0)
    assert outcome.status == "wrong"


# -- generators ----------------------------------------------------------------------


def test_streams_are_seeded_and_cold_rounds_share_no_solve_index():
    for name, workload in wl.WORKLOADS.items():
        a, b = next(workload.rounds(7)), next(workload.rounds(7))
        assert a == b, name
    rnd = next(wl.WORKLOADS["verify-cold"].rounds(7))
    indices = [req.index for block in rnd for req in block]
    assert sorted(indices) == sorted(wl.VERIFY_POOL)
    assert all(req.index == wl.solve_index(req.n) for block in rnd for req in block)
    with pytest.raises(ValueError):
        wl.check_cold_round([rnd[0], rnd[0]])


# -- tracing ---------------------------------------------------------------------------


def test_self_times_add_up_to_the_root_spans(lib, tmp_path):
    tracer = tr.Tracer()
    original = lib.cli.main
    lib.clear_caches()
    tracer.install(lib.package, lib.modules)
    try:
        root = tracer.open("bench.request", "bench")
        lib.cli.main(["verify", "--n", "7", "--output", str(tmp_path / "v.json")])
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert lib.cli.main is original
    spans = tracer.spans
    names = {s[tr.NAME] for s in spans}
    assert {"cli.main", "zeta.construct_zeta", "solver.solve_unity",
            "descent.build_certificate", "oracle.trig_root"} <= names
    assert sum(s[tr.R_OPS] for s in spans) > 0 and sum(s[tr.C_OPS] for s in spans) > 0
    self_total = sum(tr.self_times(spans)) + sum(tr.hp_time(s) for s in spans)
    assert self_total == pytest.approx(spans[0][tr.END] - spans[0][tr.START], rel=1e-9)
    assert all(t > -1e-6 for t in tr.self_times(spans))


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [tr.new_span("a", "x", 0.0, None, 0), tr.new_span("a", "x", 1.0, 0, 0),
             tr.new_span("b", "x", 2.0, 1, 0)]
    for s, end in zip(spans, (10.0, 5.0, 3.0)):
        s[tr.END] = end
    assert tr.outermost(spans, ("a",)) == [spans[0]]
    assert tr.outermost(spans, ("b",)) == [spans[2]]
    assert tr.self_times(spans) == [6.0, 3.0, 1.0]


def test_layer_figures_keep_set_up_apart_and_count_only_real_solves(lib, tmp_path):
    tracer = tr.Tracer()
    items = [wl.Request("cli", 7, ("verify", 7), 14)] * 2  # the second hits the caches
    outcomes = run.traced_replay(lib, wl.WORKLOADS["verify-cold"], items,
                                 str(tmp_path / "v.json"), tracer)
    assert [o.status for o in outcomes] == ["ok", "ok"]
    requests = [s for s in tracer.spans if s[tr.NAME] == "bench.request"]
    # the span holds the library call only, not the checker
    assert all(s[tr.END] - s[tr.START] <= o.seconds for s, o in zip(requests, outcomes))
    figures = run.per_layer(tracer.spans, len(outcomes), 1.0, {})
    assert figures["solver.calls"][0] == 0.5
    assert figures["setup.solver.calls"][0] == 1
    assert figures["setup.solver.solve_s"][0] > 0
