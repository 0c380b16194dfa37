#!/usr/bin/env python3
"""Measures a change against its parent with perfbench and writes BENCH_<label>.json.

Run from the root of the repository, with a second checkout of the parent
commit next to it (make it with `git clone` or `git archive`):

    python3 bench/record_bench.py --label pr17 --parent ../parent \
        --pairs 10 --seconds 20

For each workload in BENCHMARK.json the script runs
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` in
both checkouts as alternating pairs (the side that goes first alternates
too), then one `--trace 1` run per side for the per-layer metrics. After
each run it copies the checkout's `.bench_build/out/result-*.json` into
`--keep` (default `.bench_build/record/<label>`), so an interrupted session
can be summarized later with `--summarize-only`.

The output holds each side's git commit and, per workload, the median and
quartiles of every end-to-end metric, the per-pair change/parent ratios
and win count of `sim_cycles_per_s`, the failed-operation counts, and the
traced per-layer metrics of both sides.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace, keep, tag):
    """Runs perfbench once in `checkout`; returns the copied result path."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    src = os.path.join(checkout, ".bench_build", "out",
                       "result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    if proc.returncode != 0 or not os.path.exists(src):
        sys.exit("record_bench: run failed in %s: %s" % (checkout, " ".join(cmd)))
    dst = os.path.join(keep, tag + ".json")
    shutil.copyfile(src, dst)
    return dst


def quartiles(values):
    """(q1, median, q3) of a list, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


def summarize_side(results, names):
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(sorted(values))
        out[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
    return out


def load_runs(keep, side, workload, seed, trace):
    pattern = os.path.join(keep, "%s-%s-seed%d-trace%d-*.json" %
                           (side, workload, seed, trace))
    runs = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def summarize(bench, keep, seed, workloads):
    e2e = [m["name"] for m in bench["end_to_end"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    doc = {"seed": seed, "workloads": {}}
    for workload in workloads:
        sides = {}
        for side in ("parent", "change"):
            runs = load_runs(keep, side, workload, seed, 0)
            traced = load_runs(keep, side, workload, seed, 1)
            if not runs:
                continue
            doc.setdefault("commits", {})[side] = \
                runs[0]["provenance"].get("commit", "unknown")
            sides[side] = {
                "end_to_end": summarize_side(runs, e2e),
                "failed": [r["failed"] for r in runs],
                "attempted": [r["attempted"] for r in runs],
            }
            if traced:
                sides[side]["per_layer"] = {
                    k: v["value"] for k, v in traced[-1]["metrics"].items()
                    if k in layer_names}
        entry = {"sides": sides}
        parent = load_runs(keep, "parent", workload, seed, 0)
        change = load_runs(keep, "change", workload, seed, 0)
        if parent and change and len(parent) == len(change):
            ratios = {}
            wins = {}
            for name in e2e:
                pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in zip(parent, change)]
                ratios[name] = [c / p if p else None for p, c in pairs]
                if better[name] == "higher":
                    wins[name] = sum(1 for p, c in pairs if c > p)
                else:
                    wins[name] = sum(1 for p, c in pairs if c < p)
            entry["pair_ratios_change_over_parent"] = ratios
            entry["pair_wins_change"] = wins
            entry["pairs"] = len(parent)
        doc["workloads"][workload] = entry
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workloads", default="",
                        help="comma list (default: every BENCHMARK.json workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--keep", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--summarize-only", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    keep = args.keep or os.path.join(ROOT, ".bench_build", "record", args.label)
    os.makedirs(keep, exist_ok=True)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}

    if not args.summarize_only:
        for workload in workloads:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    tag = "%s-%s-seed%d-trace0-%02d" % (side, workload, args.seed, i)
                    path = run_once(checkouts[side], workload, args.seed,
                                    args.seconds, 0, keep, tag)
                    with open(path) as f:
                        r = json.load(f)
                    print("%s %s pair %d: sim_cycles_per_s %.0f failed %d" %
                          (workload, side, i,
                           r["metrics"]["sim_cycles_per_s"]["value"],
                           r["failed"]), flush=True)
            for side in ("parent", "change"):
                tag = "%s-%s-seed%d-trace1-00" % (side, workload, args.seed)
                run_once(checkouts[side], workload, args.seed, args.seconds, 1,
                         keep, tag)

    doc = summarize(bench, keep, args.seed, workloads)
    doc["label"] = args.label
    doc["protocol"] = ("perfbench/run.py --seed %d --seconds %d: alternating "
                       "parent/change pairs with --trace 0, then one --trace 1 "
                       "run per side" % (args.seed, args.seconds))
    out = args.out or os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + out)


if __name__ == "__main__":
    main()
