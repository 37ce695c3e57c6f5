#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same commit, interleaved.

Run from the repository root:

    python3 ledger/steady.py [--runs 10] [--seconds N] [--workloads point,scan]

For run i of each workload it runs set A with seed 1000+i and set B with
seed 2000+i back to back, alternating which set goes first, so that a
drift of the host over time lands in both sets alike. For every workload
and end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over median), and whether the set passes:
every spread within the metric's bound from BENCHMARK.json, set B's
median within the bound of set A's in either direction, and every run
correct with no failed operation. It also
records the host: nproc, GOMAXPROCS, Go version, GOGC and the filesystem
that holds the benchmark's WAL directories. The raw results are written
as JSON to $CARGO_TARGET_DIR (default .bench_build)/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s%s" % (workload, seed, p.stdout[-2000:], p.stderr))
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"] != 0:
        sys.exit("run incorrect (%s seed %d): %d of %d operations failed" %
                 (workload, seed, out["failed"], out["attempted"]))
    out["wall_s"] = time.time() - t0
    return out


def filesystem(path):
    """Type and mount point of the filesystem holding path."""
    best = ("?", "")
    path = os.path.realpath(path)
    with open("/proc/self/mountinfo") as f:
        for line in f:
            parts = line.split()
            mnt = parts[4]
            fstype = parts[parts.index("-") + 1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best[1]):
                best = (fstype, mnt)
    return "%s on %s" % best


def host_facts(work):
    go = subprocess.run(["go", "version"], stdout=subprocess.PIPE, text=True,
                        env=dict(os.environ, GOTOOLCHAIN="local")).stdout.strip()
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "GOMAXPROCS": os.environ.get("GOMAXPROCS", "unset (= nproc, %d)" % nproc),
        "go": go,
        "GOGC": os.environ.get("GOGC", "unset (= 100)"),
        "wal_filesystem": filesystem(work),
    }


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma-separated; default: all")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    work = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(work, exist_ok=True)
    facts = host_facts(work)

    results = {w: {"A": [], "B": []} for w in names}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in names:
            for s in order:
                seed = (1000 if s == "A" else 2000) + i
                r = run_once(w, seed, seconds)
                results[w][s].append(r)
                print("run %d %s set %s seed %d: %.1fs" % (i, w, s, seed, r["wall_s"]),
                      file=sys.stderr, flush=True)

    ok = True
    print("host: " + ", ".join("%s=%s" % kv for kv in facts.items()))
    print("runs per set: %d, run_seconds: %d\n" % (args.runs, seconds))
    print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B vs A | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row, passed = [], True
            stats = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                stats[s] = med
                row += ["%.4g [%.4g, %.4g]" % (med, q1, q3), "%.3f" % spread]
                if spread > bound:
                    passed = False
            change = stats["B"] / stats["A"] - 1
            if abs(change) > bound:
                passed = False
            ok = ok and passed
            print("| %s | %s | %s | %+.3f | %.2f | %s |" % (w, name, " | ".join(row), change, bound,
                                                           "yes" if passed else "NO"))
        attempted = {s: sum(r["attempted"] for r in results[w][s]) for s in ("A", "B")}
        print("| %s | failed / attempted | 0 / %d | | 0 / %d | | | | yes |" % (w, attempted["A"], attempted["B"]))
    with open(os.path.join(work, "steady.json"), "w") as f:
        json.dump({"host": facts, "seconds": seconds, "results": results}, f)
    print("\nsteady: %s" % ("all metrics within bounds" if ok else "SOME METRICS OUT OF BOUNDS"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
