#!/usr/bin/env python3
"""Compare two sets of benchmark results of one workload.

    python3 perfbench/compare.py --base A1.txt [A2.txt ...] --head B1.txt [...]

Each file is the saved standard output of one `perfbench/run.py` run. For
every metric the script prints each side's median over its runs, their
quartiles, and the change of the head median against the base median. An
end-to-end metric that worsens by more than its bound in BENCHMARK.json is
flagged.

Exit codes: 0 no metric worse than its bound, 1 at least one is, 2 bad
input, 3 refused: the results come from different hosts or toolchains
(their `host` lines differ), from an unoptimised build, or from different
workloads, sizes or trace modes.
"""
import argparse
import json
import pathlib
import re
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
OPTIMISED = re.compile(r"(^|\s)-O[23s]\b")


def refuse(message):
    print(f"compare: refused: {message}", file=sys.stderr)
    sys.exit(3)


def load(path):
    """One run: its host fingerprint, workload line and result object."""
    try:
        lines = pathlib.Path(path).read_text().strip().splitlines()
        result = json.loads(lines[-1])
        host = next(json.loads(l[5:]) for l in lines if l.startswith("host "))
        workload = next(l.split()[1] for l in lines
                        if l.startswith("fingerprint "))
    except (OSError, IndexError, StopIteration, ValueError) as error:
        print(f"compare: {path}: not a benchmark result ({error})",
              file=sys.stderr)
        sys.exit(2)
    return {"path": path, "host": host, "workload": workload,
            "result": result}


def check_pairable(runs):
    host = runs[0]["host"]
    for run in runs:
        if run["host"] != host:
            refuse(f"host fingerprints differ: {runs[0]['path']} has "
                   f"{json.dumps(host)}, {run['path']} has "
                   f"{json.dumps(run['host'])}")
        if run["workload"] != runs[0]["workload"]:
            refuse(f"{run['path']} ran {run['workload']}, "
                   f"{runs[0]['path']} ran {runs[0]['workload']}")
        if sorted(run["result"]["metrics"]) != sorted(
                runs[0]["result"]["metrics"]):
            refuse(f"{run['path']} reports other metrics than "
                   f"{runs[0]['path']} (size or trace mode differ)")
    if not OPTIMISED.search(host.get("flags", "")) or host.get(
            "build_type") not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        refuse(f"unoptimised build: build_type={host.get('build_type')!r} "
               f"flags={host.get('flags')!r}")


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base = [load(p) for p in args.base]
    head = [load(p) for p in args.head]
    check_pairable(base + head)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for run in base + head:
        if not run["result"]["correct"]:
            print(f"warning: {run['path']} failed its correctness gate "
                  f"({run['result']['failed']} of "
                  f"{run['result']['attempted']})")

    print(f"workload {base[0]['workload']}: {len(base)} base runs, "
          f"{len(head)} head runs")
    print(f"{'metric':24} {'unit':6} {'base q1/med/q3':>34} "
          f"{'head q1/med/q3':>34} {'change':>8}  verdict")
    regressed = False
    for name in base[0]["result"]["metrics"]:
        b = summary([r["result"]["metrics"][name]["value"] for r in base])
        h = summary([r["result"]["metrics"][name]["value"] for r in head])
        unit = base[0]["result"]["metrics"][name]["unit"]
        change = (h[1] - b[1]) / b[1] if b[1] else 0.0
        verdict = ""
        spec_metric = metrics.get(name, {})
        bound = spec_metric.get("bound")
        if bound is not None:
            worse = change if spec_metric["better"] == "lower" else -change
            verdict = "WORSE than bound" if worse > bound else "within bound"
            regressed |= worse > bound
        print(f"{name:24} {unit:6} "
              f"{'%.4g / %.4g / %.4g' % b:>34} {'%.4g / %.4g / %.4g' % h:>34} "
              f"{change:+8.2%}  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
