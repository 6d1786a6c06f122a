"""The unityroot benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process, one client thread, closed loop.  With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it measures the
per-layer metrics: per-op microbenchmarks, then the same requests untraced
and traced (spans written to ``.bench_out/``).  Every output is checked
against references independent of the library.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json; the line before it, starting with
``REPORT``, holds every metric of the workload.  ``--workload all`` runs
every workload, untraced and traced, each in its own process, and prints
the combined report as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import micro
import tracer as tr
from workloads import WORKLOADS, load_library, run_request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 8               # set-ups per untraced run, spread through it
TRACE_UNTRACED_SHARE = 1 / 3   # of --seconds, for the untraced half of a traced run
SOLVES = ("solver.solve_unity", "solver.solve_binomial")
# Time of one reference_seconds() loop on the host of the baseline in its
# fast phase; timings are scaled to a host that runs the loop in this time.
REF_S = 0.0015
REF_EVERY_S = 0.1              # of service time between two reference loops

# Import and warm-up in a fresh interpreter: argv is the checkout, the
# benchmark directory, the workload and the CLI output path.
SETUP_PROBE = """
import sys, time
from pathlib import Path
root, here, name, out = sys.argv[1:5]
sys.path.insert(0, str(Path(root) / "src"))
t0 = time.perf_counter()
import unityroot
imported = time.perf_counter() - t0
sys.path.insert(0, here)
from workloads import WORKLOADS, load_library
lib = load_library(Path(root))
t0 = time.perf_counter()
WORKLOADS[name].warm_up(lib, out)
print(imported + time.perf_counter() - t0)
"""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def machine() -> dict:
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def set_up_seconds(name: str) -> float:
    """Import, lazy initialisation and warm-up of ``name`` in a fresh
    interpreter, so the measuring process keeps its caches and memory;
    scaled to the reference host like the ``norm_*`` timings, by the
    reference loops run just before and just after it."""
    out_path = str(OUT / f"setup-{os.getpid()}.json")
    before = reference_seconds()
    try:
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT), str(HERE), name,
                               out_path], capture_output=True, text=True, timeout=120,
                              check=True)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    seconds = float(done.stdout.strip().splitlines()[-1])
    return seconds * 2 * REF_S / (before + reference_seconds())


def reference_seconds() -> float:
    """Fastest of three runs of a fixed loop of 128-bit integer products and
    small objects, the kind of work the library does, with the collector
    off so the library's garbage is not collected in it."""

    class Fixed:
        __slots__ = ("m", "e")

        def __init__(self, m, e):
            self.m, self.e = m, e

    best, enabled = float("inf"), gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            x, y = Fixed((1 << 127) | 0x1234567, 0), (1 << 127) | 0x7654321
            for _ in range(4000):
                m = x.m * y
                shift = m.bit_length() - 128
                x = Fixed(m >> shift, x.e + shift)
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_stream(lib, workload, seed: int, seconds: float, out_path: str, after_request,
               items: list | None = None) -> None:
    """Closed loop until the service time reaches ``seconds``, ending at a
    block boundary; ``after_request(outcome, service)`` runs after every
    request.  If ``items`` is given, the executed requests are appended to
    it for replay, with ``None`` where the caches were emptied."""
    service = 0.0
    for round_no, blocks in enumerate(workload.rounds(seed)):
        if round_no and workload.cold:
            lib.clear_caches()
            if items is not None:
                items.append(None)
        for block in blocks:
            for req in block:
                outcome = run_request(lib, req, out_path, perf_counter)
                if items is not None:
                    items.append(req)
                service += outcome.seconds
                after_request(outcome, service)
            if service >= seconds:
                return


class Tally:
    """The outcomes of a stream, accumulated as they come, so that the
    harness keeps 16 bytes per request and ``rss_growth_mb`` hardly depends
    on how many requests the host managed."""

    def __init__(self):
        self.attempted = self.crashed = self.wrong = 0
        self.service = {"": 0.0, "norm_": 0.0}
        self.latency = {"": array("d"), "norm_": array("d")}  # correct requests
        self.bits = None
        self.kinds: dict = {}  # "kind.status" -> count and one example detail

    def add(self, o, scale: float = 1.0) -> None:
        """Count an outcome; ``scale`` converts its time to the reference host."""
        self.attempted += 1
        self.crashed += o.status == "crash"
        self.wrong += o.status == "wrong"
        self.service[""] += o.seconds
        self.service["norm_"] += o.seconds * scale
        entry = self.kinds.setdefault(f"{o.kind}.{o.status}", {"count": 0, "example": o.detail})
        entry["count"] += 1
        if o.status == "ok":
            self.latency[""].append(o.seconds)
            self.latency["norm_"].append(o.seconds * scale)
            if o.bits is not None:
                self.bits = o.bits if self.bits is None else min(self.bits, o.bits)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latency[""])

    def timings(self, prefix: str) -> dict:
        lat = sorted(self.latency[prefix])
        return {
            prefix + "throughput_rps": (len(lat) / self.service[prefix], "1/s"),
            prefix + "latency_p50_s": (statistics.median(lat) if lat else None, "s"),
            prefix + "latency_p90_s": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1
                                       else None, "s"),
        }


def end_to_end(tally: Tally, refs: list, setup_s: float, rss_growth_mb: float) -> dict:
    """``refs`` holds every reference_seconds() measured in the run."""
    return {
        **tally.timings("norm_"),
        **tally.timings(""),
        "host_ref_ms": (statistics.median(refs) * 1e3, "ms"),
        "fail_share": (tally.failed / tally.attempted, "share"),
        "crash_share": (tally.crashed / tally.attempted, "share"),
        "accuracy_bits": (tally.bits, "bits"),
        "setup_s": (setup_s, "s"),
        "rss_growth_mb": (rss_growth_mb, "MB"),
    }


def layer_figures(spans: list, self_s: list, keep) -> dict:
    """Layer totals over the spans for which ``keep(span)`` holds."""
    kept = [(s, t) for s, t in zip(spans, self_s) if keep(s)]
    parents = {id(spans[s[tr.PARENT]]) for s in spans if s[tr.PARENT] is not None}

    def calls(*names):
        return tr.total(s for s in tr.outermost(spans, names) if keep(s))

    def layer_self(layer):
        return sum(t for s, t in kept if s[tr.LAYER] == layer)

    # a solve that returned from the cache recorded no HP operator and no span
    solves = [s for s in tr.outermost(spans, SOLVES) if keep(s)
              and (s[tr.R_OPS] or s[tr.C_OPS] or id(s) in parents)]
    return {
        "hpreal.ops": (sum(s[tr.R_OPS] for s, _ in kept), "count"),
        "hpcomplex.ops": (sum(s[tr.C_OPS] for s, _ in kept), "count"),
        "hpreal.self_s": (sum(s[tr.R_S] for s, _ in kept), "s"),
        "hpcomplex.self_s": (sum(s[tr.C_S] - s[tr.R_IN_C_S] for s, _ in kept), "s"),
        "solver.solve_s": (tr.total(solves), "s"),
        "solver.self_s": (layer_self("solver"), "s"),
        "solver.calls": (len(solves), "count"),
        "zeta.construct_s": (calls("zeta.construct_zeta"), "s"),
        "descent.certificate_s": (calls("descent.build_certificate"), "s"),
        "descent.self_s": (layer_self("descent"), "s"),
        "primitivity.roots_of_s": (calls("primitivity.roots_of"), "s"),
        "primitivity.order_s": (calls("primitivity.multiplicative_order"), "s"),
        "primitivity.self_s": (layer_self("primitivity"), "s"),
        "dft.forward_s": (calls("dft.dft_forward"), "s"),
        "dft.inverse_s": (calls("dft.dft_inverse"), "s"),
        "dft.twiddle_s": (calls("dft.twiddle_table"), "s"),
        "oracle.trig_s": (calls("oracle.zeta_matches_trig", "oracle.trig_root"), "s"),
        "cli.main_s": (calls("cli.main"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }


def per_layer(spans: list, requests: int, overhead: float, micro_us: dict) -> dict:
    """Layer figures of a traced run: per request over the request spans,
    and as totals (``setup.*``) over the set-up span; plus the per-op
    timings and the tracing overhead."""
    self_s = tr.self_times(spans)
    out = {name: (value, "us") for name, value in micro_us.items()}
    for name, (value, unit) in layer_figures(spans, self_s,
                                             lambda s: s[tr.REQUEST] != "setup").items():
        out[name] = (value / requests, unit)
    setup = layer_figures(spans, self_s, lambda s: s[tr.REQUEST] == "setup")
    for name in ("solver.solve_s", "solver.self_s", "solver.calls", "zeta.construct_s",
                 "dft.twiddle_s"):
        out["setup." + name] = setup[name]
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def traced_replay(lib, workload, items: list, out_path: str, tracer) -> list:
    """Empty the caches, then trace the set-up and the same requests.  Only
    the library calls are inside the request spans, not the input building
    and checking of the benchmark."""
    lib.clear_caches()
    tracer.install(lib.package, lib.modules)
    try:
        tracer.request = "setup"
        with tracer.span("bench.setup", "bench"):
            workload.warm_up(lib, out_path)
        outcomes = []
        for i, req in enumerate(items):
            if req is None:
                lib.clear_caches()
                continue
            tracer.request = i
            outcomes.append(run_request(lib, req, out_path, perf_counter,
                                        around=lambda: tracer.span("bench.request", "bench")))
    finally:
        tracer.uninstall()
    return outcomes


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    lib = load_library(ROOT)
    floor_mb = rss_mb()
    OUT.mkdir(exist_ok=True)
    out_path = str(OUT / f"cli-{os.getpid()}.json")
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        lib.clear_caches()
        workload.warm_up(lib, out_path)
        tally = Tally()
        if not trace:
            samples, refs, pending = [set_up_seconds(name)], [reference_seconds()], []

            def rescale():
                """Scale the pending requests by the reference loops run
                just before and just after them."""
                refs.append(reference_seconds())
                for o in pending:
                    tally.add(o, 2 * REF_S / (refs[-2] + refs[-1]))
                pending.clear()

            def after_request(outcome, service):
                pending.append(outcome)
                if sum(o.seconds for o in pending) >= REF_EVERY_S:
                    rescale()
                if (len(samples) < SETUP_SAMPLES
                        and service >= len(samples) * seconds / SETUP_SAMPLES):
                    samples.append(set_up_seconds(name))

            run_stream(lib, workload, seed, seconds, out_path, after_request)
            if pending:
                rescale()
            metrics = end_to_end(tally, refs, min(samples), rss_mb() - floor_mb)
            report["setup_samples_s"] = samples
        else:
            micro_us = micro.run(lib, seed)
            items: list = []
            run_stream(lib, workload, seed, seconds * TRACE_UNTRACED_SHARE, out_path,
                       lambda outcome, service: tally.add(outcome), items=items)
            untraced_s = tally.service[""]
            tracer = tr.Tracer()
            for o in traced_replay(lib, workload, items, out_path, tracer):
                tally.add(o)
            traced_s = tally.service[""] - untraced_s
            requests = sum(item is not None for item in items)
            metrics = per_layer(tracer.spans, requests, traced_s / untraced_s, micro_us)
            with open(OUT / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "layer", "start", "end", "parent", "request",
                                      "hpreal_ops", "hpreal_s", "hpcomplex_ops",
                                      "hpcomplex_s", "hpreal_in_hpcomplex_s"],
                           "spans": tracer.spans}, handle)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["outcomes"] = tally.kinds
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["correct"] = tally.wrong == 0
    return report


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    bench = spec()
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in report["metrics"].items():
        print(f"{report['workload']:>14}  {key:<24} {m['value']!s:>24} {m['unit']}")
    print("REPORT " + json.dumps(report))
    line = {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m["name"]: report["metrics"][m["name"]] for m in listed}}
    print(json.dumps(line), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    gated = {w["name"] for w in spec()["workloads"]}
    combined = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
                "workloads": {}}
    for name in WORKLOADS:
        entry = {"gated": name in gated}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"running {name} trace={trace}", file=sys.stderr, flush=True)
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                                  check=True)
            report = next(json.loads(line[len("REPORT "):])
                          for line in done.stdout.splitlines() if line.startswith("REPORT "))
            entry["per_layer" if trace else "end_to_end"] = report
        combined["workloads"][name] = entry
    print(json.dumps(combined, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="service time to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 - no result line on any failure
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
