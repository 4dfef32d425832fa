#!/usr/bin/env python3
"""Builds sea-dse and the benchmark, then runs one workload or a steadiness check.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steadiness mode, two interleaved sets of runs of the same commit:

    python3 perfbench/run.py --steadiness [--seconds 30] [--workloads a,b]

Steadiness mode makes 10 runs per set, on seeds 1 to 10, and fails unless
every run is correct with no failed operation and the two sets' medians
agree within each metric's bound.

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); traces and steadiness results go to `.perfbench/`.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
BUILD_TIMEOUT_S = 840
STEADINESS_RUNS = 10
RUN_TIMEOUT_S = 170


def build():
    """Builds the release `sea-dse` binary and the benchmark; returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "sea-dse"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"run.py: `{' '.join(cmd)}` failed")
    return (os.path.join(target, "release", "sea-dse"),
            os.path.join(target, "release", "perfbench"))


def run_once(bench, sea_dse, workload, seed, seconds, trace):
    """One benchmark run; returns (exit code, stdout lines)."""
    env = dict(os.environ, SEA_JOBS="1")
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--sea-dse", sea_dse]
    # Own process group, so a timeout also ends the daemon and worker the
    # benchmark started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def spread(values):
    """(median, first quartile, third quartile), as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def steadiness(bench, sea_dse, args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    host = None
    for i in range(STEADINESS_RUNS):
        seed = 1 + i
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                code, lines = run_once(bench, sea_dse, w, seed, args.seconds, 0)
                if code != 0 or not lines:
                    sys.exit(f"run.py: {w} seed {seed} (set {side}) failed with code {code}")
                host = host or next((l[5:] for l in lines if l.startswith("host ")), None)
                out = json.loads(lines[-1])
                results[w][side].append(out)
                print(f"{w} seed {seed} set {side}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)
    report = {"host": json.loads(host) if host else None, "runs": STEADINESS_RUNS,
              "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        print(f"\n## {w}: {STEADINESS_RUNS} runs per set, {args.seconds} s each")
        print(f"{'metric':<22} {'set A median [q1, q3]':<40} {'set B median [q1, q3]':<40} "
              f"{'A IQR/med':>9} {'B IQR/med':>9} {'B vs A':>8} {'bound':>6} agree")
        for name, m in bounds.items():
            sets = {}
            for side in "AB":
                vals = [r["metrics"][name]["value"] for r in results[w][side]]
                med, q1, q3 = spread(vals)
                sets[side] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                              "values": vals}
            worse = sets["B"]["median"] / sets["A"]["median"] - 1.0
            agree = abs(worse) <= m["bound"]
            ok &= agree
            rows[name] = {"A": sets["A"], "B": sets["B"], "b_vs_a": worse, "bound": m["bound"],
                          "agree": agree}
            fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
            print(f"{name:<22} {fmt(sets['A']):<40} {fmt(sets['B']):<40} "
                  f"{sets['A']['iqr_share']:>9.4f} {sets['B']['iqr_share']:>9.4f} "
                  f"{worse:>+8.4f} {m['bound']:>6} {'yes' if agree else 'NO'}")
        runs = results[w]["A"] + results[w]["B"]
        incorrect = sum(1 for r in runs if not r["correct"])
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        ok &= incorrect == 0 and failed == 0
        print(f"runs not correct: {incorrect} of {len(runs)}; "
              f"operations failed: {failed} of {attempted}")
        report["workloads"][w] = {"metrics": rows, "incorrect_runs": incorrect,
                                  "failed": failed, "attempted": attempted}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, time.strftime("steadiness-%Y%m%dT%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(f"\nhost: {host}\nwritten: {path}\nsteadiness: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--workloads")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at the repository root; run from a full checkout")
    sea_dse, bench = build()
    if args.steadiness:
        return steadiness(bench, sea_dse, args)
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")
    code, lines = run_once(bench, sea_dse, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
