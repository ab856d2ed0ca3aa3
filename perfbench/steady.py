#!/usr/bin/env python3
"""Steadiness and repeatability checks for the perfbench benchmark.

Run from the repository root:

  python3 perfbench/steady.py compare [--runs 10] [--workloads a,b] [--seconds S]
      Two sets of untraced runs of the same build, alternating between the
      sets (set A on seed 1, set B on seed 1, set A on seed 2, ...). For
      each workload and end-to-end metric it prints both sets' medians and
      quartiles, their spreads (Q3-Q1 as a share of the median, as Python's
      statistics.quantiles gives them) and the metric's bound from
      BENCHMARK.json, and flags a metric whose spread exceeds its bound,
      whose second median is worse than the first by
      more than the bound, or a workload whose two sets fail a different
      share of their operations. Exits 1 when anything is flagged.

  python3 perfbench/steady.py spread --workload W [--runs 5]
      One set of untraced runs on seeds 1..runs, for tuning: the medians,
      quartiles and spreads of one workload, with a third of each bound,
      the level a steady metric stays under.

  python3 perfbench/steady.py counts --workload W [--seed 1]
      Two traced runs with the same seed. Every per-layer count (unit
      "count", runtime.* excepted, since the runtime's counters follow GC
      pacing) must be identical. A deviation listed in KNOWN_DEVIATIONS is
      reported by name as a known engine fault; any other exits 1.

Each run is the command of BENCHMARK.json with --workload, --seed,
--seconds and --trace, so the checks measure exactly what the benchmark
reports. Runs print their progress to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Counts known not to repeat between runs, because of an engine fault:
# the first XR-Possible pass runs after two certain passes on the same
# persistent solvers, and on L20 instances it solves ep3 with one of a few
# decision (and conflict) counts. Seen on l20-suite and on serve-mix, whose
# L20 tenant has the same shape. Listed here so the check names them
# instead of hiding them, until the engine repeats its work counters
# exactly.
KNOWN_DEVIATIONS = {
    (w, m): "first possible pass: solver work on L20 varies between runs"
    for w in ("l20-suite", "serve-mix")
    for m in ("asp.possible_decisions", "asp.possible_conflicts")
}


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    took = time.time() - start
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {out.returncode})")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    sys.stderr.write(f"  {workload} seed={seed} trace={trace} {took:.1f}s "
                     f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}\n")
    return res


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse second is than first, as a share of first."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def cmd_compare(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    flagged = False
    for w in workloads:
        sets = ([], [])
        for i in range(args.runs):
            for s in (0, 1):
                sets[s].append(run_once(bench, w, i + 1, seconds, 0))
        print(f"\n== {w}: {args.runs} runs per set ==")
        print(f"{'metric':16} {'bound':>6} | {'A median':>11} {'A Q1':>11} {'A Q3':>11} {'A spr':>6} | "
              f"{'B median':>11} {'B Q1':>11} {'B Q3':>11} {'B spr':>6} | {'B worse':>7}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = quartiles([r["metrics"][name]["value"] for r in sets[0]])
            b = quartiles([r["metrics"][name]["value"] for r in sets[1]])
            worse = worse_by(a[0], b[0], m["better"])
            flags = []
            if a[3] > bound or b[3] > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("DRIFT")
            flagged |= bool(flags)
            print(f"{name:16} {bound:6.3f} | {a[0]:11.4f} {a[1]:11.4f} {a[2]:11.4f} {a[3]:6.3f} | "
                  f"{b[0]:11.4f} {b[1]:11.4f} {b[2]:11.4f} {b[3]:6.3f} | {worse:+7.3f} {' '.join(flags)}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        wrong = [r for s in sets for r in s if not r["correct"]]
        print(f"failed share: A {shares[0]:.6f}  B {shares[1]:.6f}; incorrect runs: {len(wrong)}")
        if shares[0] != shares[1] or wrong:
            flagged = True
            print("FLAG: the sets disagree on failures or a run was incorrect")
    return 1 if flagged else 0


def cmd_spread(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    runs = [run_once(bench, args.workload, i + 1, seconds, 0) for i in range(args.runs)]
    print(f"\n== {args.workload}: {args.runs} runs ==")
    print(f"{'metric':16} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>7} {'bound/3':>7}")
    for m in bench["end_to_end"]:
        med, q1, q3, spread = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
        mark = "" if spread <= m["bound"] / 3 else "  above a third of the bound"
        print(f"{m['name']:16} {med:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f} {m['bound'] / 3:7.3f}{mark}")
    return 0


def cmd_counts(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    first = run_once(bench, args.workload, args.seed, seconds, 1)["metrics"]
    second = run_once(bench, args.workload, args.seed, seconds, 1)["metrics"]
    unexpected = 0
    for name in sorted(first):
        if first[name]["unit"] != "count" or name.startswith("runtime."):
            continue
        a, b = first[name]["value"], second[name]["value"]
        if a == b:
            continue
        known = KNOWN_DEVIATIONS.get((args.workload, name))
        if known:
            print(f"KNOWN {args.workload} {name}: {a:g} vs {b:g} ({known})")
        else:
            unexpected += 1
            print(f"DIFF  {args.workload} {name}: {a:g} vs {b:g}")
    counted = sum(1 for n in first if first[n]["unit"] == "count" and not n.startswith("runtime."))
    print(f"{args.workload}: {counted} counts compared, {unexpected} unexpected deviations")
    return 1 if unexpected else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=5)
    s.add_argument("--seconds", type=int, default=0)
    k = sub.add_parser("counts")
    k.add_argument("--workload", required=True)
    k.add_argument("--seed", type=int, default=1)
    k.add_argument("--seconds", type=int, default=0)
    args = p.parse_args()
    return {"compare": cmd_compare, "spread": cmd_spread, "counts": cmd_counts}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
