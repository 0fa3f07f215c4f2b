#!/usr/bin/env python3
"""Paired, alternating perfbench runs of two checkouts.

Runs `perfbench/run.py` of a base checkout and of a changed checkout once
per seed each, alternating which side runs first (base first on even pairs,
change first on odd ones), so slow drifts in host load fall on both sides
alike. Then prints, for every metric, each side's median and quartiles, the
change/base ratio of the medians, and how many pairs the change was ahead
(ties count for neither side). A metric is marked `resolved` when the
change is ahead in at least nine pairs of ten and its median differs from
the base median by more than the base's interquartile range.

Each checkout builds its own perfbench binary under its own .bench_build/.

Usage:
    python3 tools/paired_perfbench.py --base ../parent --change . \\
        --workload hier_lossy --seeds 1-10 [--seconds 10] [--trace 0] [--json out.json]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'1-10' or '1,4,9' (or a mix) -> list of ints in the given order."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def directions(checkout):
    """Metric name -> 'higher' or 'lower', from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in bench.get(key, [])
            if "better" in m}


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench/run.py invocation; returns its result JSON (last line)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: run.py printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def spread(q):
    """'median [q1, q3]' of one side's quartiles."""
    return f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}]"


def summarize(pairs, better):
    """Per-metric statistics over the (base, change) result pairs."""
    names = [n for n in pairs[0][0]["metrics"] if all(
        n in b["metrics"] and n in c["metrics"] for b, c in pairs)]
    rows = []
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        bq, cq = quartiles(base), quartiles(change)
        direction = better.get(name)
        ahead = None
        resolved = None
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            ahead = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
            resolved = (10 * ahead >= 9 * len(pairs) and
                        sign * (cq[1] - bq[1]) > bq[2] - bq[0])
        rows.append({
            "metric": name, "unit": pairs[0][0]["metrics"][name]["unit"], "better": direction,
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "ahead": ahead, "pairs": len(pairs), "resolved": resolved,
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout measured as the reference")
    ap.add_argument("--change", required=True, help="checkout measured against it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7: one pair per seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the runs and the summary here")
    opt = ap.parse_args()

    base_dir, change_dir = os.path.abspath(opt.base), os.path.abspath(opt.change)
    pairs = []
    for i, seed in enumerate(parse_seeds(opt.seeds)):
        order = [("base", base_dir), ("change", change_dir)]
        if i % 2:
            order.reverse()
        got = {}
        for side, checkout in order:
            got[side] = run_once(checkout, opt.workload, seed, opt.seconds, opt.trace)
            print(f"seed {seed:3d} {side:6s} correct={got[side]['correct']} "
                  f"failed={got[side]['failed']}/{got[side]['attempted']}", file=sys.stderr,
                  flush=True)
        pairs.append((got["base"], got["change"]))

    rows = summarize(pairs, directions(change_dir))
    print(f"workload {opt.workload}: {len(pairs)} pairs, seeds {opt.seeds}, "
          f"{opt.seconds:g} s, trace {opt.trace}")
    print(f"incorrect runs: base {sum(not b['correct'] for b, _ in pairs)}, "
          f"change {sum(not c['correct'] for _, c in pairs)}")
    print(f"{'metric':34s} {'base median [q1, q3]':32s} {'change median [q1, q3]':32s} "
          f"{'ratio':>7s} {'ahead':>6s} resolved")
    for r in rows:
        ahead = "-" if r["ahead"] is None else f"{r['ahead']}/{r['pairs']}"
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        resolved = "-" if r["resolved"] is None else ("yes" if r["resolved"] else "no")
        print(f"{r['metric']:34s} {spread(r['base']):32s} {spread(r['change']):32s} "
              f"{ratio:>7s} {ahead:>6s} {resolved}")
    if opt.json:
        with open(opt.json, "w") as f:
            json.dump({"workload": opt.workload, "seeds": opt.seeds, "seconds": opt.seconds,
                       "trace": opt.trace, "runs": [{"base": b, "change": c} for b, c in pairs],
                       "summary": rows}, f, indent=1)
    return 0 if all(b["correct"] and c["correct"] for b, c in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
