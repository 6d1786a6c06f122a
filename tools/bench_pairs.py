"""Alternating parent/change runs of the benchmark, summarised per metric.

    python tools/bench_pairs.py PARENT CHANGE [LABEL] [--pairs 10]

PARENT and CHANGE are two checkouts of the repository.  For every workload
of CHANGE/BENCHMARK.json, the script runs each checkout's own, unchanged
`perfbench/run.py --trace 0` in a fresh process, at its default run length,
in --pairs pairs: pair i (1-based) runs both sides on seed i, the parent
first in odd pairs and the change first in even ones.

Each side is named by its commit, when it is a git checkout, and by its
`source` digest: the first 12 hex digits of a SHA-256 over the relative
path and bytes of every .py file under src/ and perfbench/, the code a run
executes.  `source_digest` of another tree says whether it holds the same
code.

It writes BENCH_<LABEL>.json (LABEL defaults to the change's source digest)
into the current directory.  For every workload and end-to-end metric it
holds each side's runs, median and quartiles, the change's median over the
parent's, the pairs the change won, lost and tied (by the metric's `better`
direction), and whether the change's median is worse than the parent's by
more than the metric's bound; and for each side the requests attempted and
failed per run.  A pair is a win when the change reads better than the
parent run of the same pair.  A summary table goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def source_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of src/ and perfbench/ .py files."""
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "perfbench") for p in (root / d).rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:12]


def identity(root: Path) -> dict:
    """The checkout's commit (None outside git) and source digest."""
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return {"commit": done.stdout.strip() if done.returncode == 0 else None,
            "source": source_digest(root)}


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run; its last line of output, parsed."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{root.name} {workload} seed {seed}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarise(metric: dict, parent: list, change: list) -> dict:
    """Medians, quartiles and pair wins of one metric over paired runs."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    pv = [r["metrics"][name]["value"] for r in parent]
    cv = [r["metrics"][name]["value"] for r in change]
    diffs = [sign * (c - p) for p, c in zip(pv, cv)]
    before, after = spread(pv), spread(cv)
    worse = sign * (after["median"] - before["median"])
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": before, "change": after,
        "ratio": after["median"] / before["median"] if before["median"] else None,
        "wins": sum(d > 0 for d in diffs), "losses": sum(d < 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "worse_than_bound": worse < -metric["bound"] * abs(before["median"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("label", nargs="?", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = spec(change)
    report = {"parent": identity(parent), "change": identity(change),
              "pairs": args.pairs, "seeds": [1, args.pairs],
              "run_seconds": bench["run_seconds"],
              "python": platform.python_version(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                print(f"{workload} pair {seed}/{args.pairs}: {side}", file=sys.stderr,
                      flush=True)
                root = parent if side == "parent" else change
                runs[side].append(run_once(root, workload, seed))
        entry = {side: {"attempted": [r["attempted"] for r in rs],
                        "failed": [r["failed"] for r in rs],
                        "correct": all(r["correct"] for r in rs)}
                 for side, rs in runs.items()}
        entry["metrics"] = {m["name"]: summarise(m, runs["parent"], runs["change"])
                            for m in bench["end_to_end"]}
        report["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
            print(f"{workload:>12} {name:<22} parent {m['parent']['median']:.6g} "
                  f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]  change "
                  f"{m['change']['median']:.6g}  x{ratio}  wins {m['wins']}/{args.pairs}"
                  + ("  WORSE THAN BOUND" if m["worse_than_bound"] else ""),
                  file=sys.stderr)
    out = Path(f"BENCH_{args.label or report['change']['source']}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
