#!/usr/bin/env python3
"""Repeats the benchmark and compares result sets against BENCHMARK.json.

    python3 perfbench/repeat.py run [--runs 10] [--first-seed 1]
                                    [--workload W ...] [--trace 0|1] --out FILE
    python3 perfbench/repeat.py show FILE
    python3 perfbench/repeat.py compare OLD NEW

`run` calls run.py once per seed (seeds first-seed, first-seed+1, ...)
for each workload, prints each metric's median, quartiles and spread
(quartile distance as a share of the median), and saves every result to
FILE (JSON).  `show` prints the same table for a saved file.  `compare`
checks NEW against OLD the way the benchmark's bounds are meant: each
end-to-end metric's spread within its bound (setup_s excepted), NEW's
median no worse than OLD's by more than the bound, and the same share of
failed operations.  Exit code 1 when any check fails.  Run from the root
of a checkout; results conventionally go under perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(workloads, runs, first_seed, trace):
    s = spec()
    results = {}
    for w in workloads:
        results[w] = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(s["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode), file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            results[w].append(result)
            print("%s seed %d: %s" % (w, seed, json.dumps(result["metrics"])), file=sys.stderr)
    return results


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def show(results):
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    for w, rs in results.items():
        if not rs:
            print("%s: no results" % w)
            continue
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        ok = all(r["correct"] for r in rs)
        print("%s: %d runs, correct=%s, failed %d of %d" % (w, len(rs), ok, failed, attempted))
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, spread = summary(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = "  bound %.2f%s" % (bound, "  SPREAD>BOUND/3" if spread > bound / 3 else "")
            print("  %-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%%%s"
                  % (name, med, q1, q3, 100 * spread, note))


def compare(old, new):
    bad = 0
    for m in spec()["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        for w in sorted(set(old) & set(new)):
            a = [r["metrics"][name]["value"] for r in old[w] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new[w] if name in r["metrics"]]
            if not a or not b:
                continue
            ma, _, _, sa = summary(a)
            mb, _, _, sb = summary(b)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE THAN BOUND"
            elif name != "setup_s" and max(sa, sb) > bound:
                verdict = "SPREAD WIDER THAN BOUND"
            bad += verdict != "ok"
            print("%-16s %-12s old %-12.6g new %-12.6g worse %+7.2f%% spread %5.2f%%/%5.2f%% "
                  "bound %4.0f%%  %s" % (w, name, ma, mb, 100 * worse, 100 * sa, 100 * sb,
                                         100 * bound, verdict))
    for w in sorted(set(old) & set(new)):
        share = [sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                 for rs in (old[w], new[w])]
        if share[0] != share[1]:
            bad += 1
            print("%s: failed share differs: %r vs %r" % (w, share[0], share[1]))
    print("compare: %s" % ("ok" if bad == 0 else "%d problem(s)" % bad))
    return bad == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workload", action="append")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("show")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = p.parse_args()

    if args.cmd == "run":
        workloads = args.workload or [w["name"] for w in spec()["workloads"]]
        results = run_set(workloads, args.runs, args.first_seed, args.trace)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
        show(results)
    elif args.cmd == "show":
        with open(args.file) as f:
            show(json.load(f))
    else:
        with open(args.old) as f:
            old = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
        sys.exit(0 if compare(old, new) else 1)


if __name__ == "__main__":
    main()
