#!/usr/bin/env python3
"""Phase-split benchmark of the ID-based group key agreement library.

Builds the benchmark program (perfbench/CMakeLists.txt) on first use, runs
one workload from one seed, checks the results and prints one JSON object
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set (plus a span file under .bench_out/).

Correctness checks, all of which must pass for "correct": true:
  * every formation and churn operation succeeded and left every member
    with the same, fresh key (checked inside the program after each call);
  * a fixed-size check run repeated in one process, and run again in
    separate processes at IDGKA_THREADS=1 and at the default thread count,
    gives bit-identical deterministic outputs (virtual latencies, air bits,
    energy, mpint/wire/net/engine/cluster counts, keys);
  * the timed run's first operations match that check run record for
    record, and the next seed changes the outputs.

Usage:
    python3 perfbench/run.py --workload paper_flat --seed 1 --seconds 10 --trace 0
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_flat", "hier_lossy", "multigroup")
# Timed runs use a fixed thread count so runs on hosts of different sizes
# stay comparable.
THREADS = min(os.cpu_count() or 1, 4)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally) under .bench_build/ of this
    checkout; returns the binary path. Configuring every time is cheap and
    makes CMake refuse a build tree that belongs to other sources."""
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(THREADS)]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "gka_perfbench")


def run_program(binary, args, threads, timeout):
    """Runs the program; returns its JSON result (last stdout line)."""
    env = dict(os.environ)
    env.pop("IDGKA_THREADS", None)
    if threads is not None:
        env["IDGKA_THREADS"] = str(threads)
    proc = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr[-2000:])
        raise SystemExit(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def check_determinism(binary, timed, workload, seed, smoke):
    """The three check runs and their comparisons; returns violations."""
    base = ["--workload", workload, "--check"] + (["--smoke"] if smoke else [])
    jobs = {
        "threads1": (base + ["--seed", str(seed), "--repeat"], 1),
        "default": (base + ["--seed", str(seed)], None),
        "next_seed": (base + ["--seed", str(seed + 1)], 1),
    }
    with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
        futures = {name: pool.submit(run_program, binary, args, threads, 150)
                   for name, (args, threads) in jobs.items()}
        res = {name: f.result() for name, f in futures.items()}
    errors = []
    for name, r in res.items():
        errors += [f"check {name}: {e}" for e in r["errors"]]
    a, b, c = res["threads1"], res["default"], res["next_seed"]
    if a["digest"] != b["digest"]:
        keys = sorted(k for k in set(a["digest"]) | set(b["digest"])
                      if a["digest"].get(k) != b["digest"].get(k))
        errors.append(f"IDGKA_THREADS=1 and default threads differ at {keys[:5]}")
    if timed["records"] != a["records"]:
        errors.append("timed run's first operations differ from the check run")
    if c["digest"] == a["digest"] or c["records"] == a["records"]:
        errors.append(f"seed {seed + 1} gives the same outputs as seed {seed}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small groups and few operations (the benchmark's own tests)")
    opt = ap.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{opt.workload}_{opt.seed}_{opt.trace}"
    args = ["--workload", opt.workload, "--seed", str(opt.seed), "--seconds", str(opt.seconds)]
    if opt.trace:
        args += ["--trace", "--spans", os.path.join(out_dir, f"spans_{tag}.json")]
    if opt.smoke:
        args.append("--smoke")
    timed = run_program(binary, args, THREADS, 170)
    errors = [f"timed: {e}" for e in timed["errors"]]
    errors += check_determinism(binary, timed, opt.workload, opt.seed, opt.smoke)

    fingerprint = dict(timed["fingerprint"], commit=git_commit())
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in timed["metrics"].items()}
    print(f"workload {opt.workload}  seed {opt.seed}  trace {opt.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    print(f"  rekey samples: {timed['rekey_samples']} (p90 has "
          f"{timed['rekey_samples'] // 10} beyond it)")
    print("  setups (s): " + " ".join(f"{v:.4f}" for v in timed["setup_samples_s"]))
    if opt.trace:
        with open(os.path.join(out_dir, f"spans_{tag}.json")) as f:
            self_time = json.load(f)["self_time"]
        print("self time by span (ms; mod-mul+sqr count):")
        for name, agg in sorted(self_time.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {name:34s} {agg['count']:6d}x {agg['self_ms']:12.1f} {agg['mod_ops']:14d}")
    for e in errors:
        print("VIOLATION " + e)
    result = {"correct": not errors, "attempted": timed["attempted"],
              "failed": timed["failed"], "metrics": metrics}
    with open(os.path.join(out_dir, f"result_{tag}.json"), "w") as f:
        json.dump(dict(result, fingerprint=fingerprint, errors=errors), f, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
