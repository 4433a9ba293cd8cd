#!/usr/bin/env python3
"""Steadiness runs for the benchmark.

Runs BENCHMARK.json's command, with its run_seconds, on each workload
with several seeds and reports, per end-to-end metric, the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound. Every run's notes
(input hash, set-up repetitions, CPU steal, failed checks) are kept.

With --sets 2 it records two sets on the same seeds, alternating runs
between them (seed 1: set 1 then set 2; seed 2: set 2 then set 1; ...),
so drift of the machine's speed lands on both, and reports by how much
the second set's median is worse than the first's. With --traced it also
makes one traced run per workload and records every per-layer metric.

    python3 perfbench/steady.py --sets 2 --traced --out perfbench/baseline.json
    python3 perfbench/steady.py --workloads serve --seeds 5

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

NOTE_PREFIXES = ("inputs:", "setup_s reps:", "host:", "phase:", "server:", "FAILED")


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    notes = [line for line in proc.stdout.splitlines() if line.startswith(NOTE_PREFIXES)]
    return {
        "seed": seed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "wall_s": round(wall, 2),
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "notes": notes,
    }


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def worse_by(first, second, better):
    """By what share of `first` the median `second` is worse."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    ap.add_argument("--sets", type=int, default=1, help="sets on the same seeds, runs alternating")
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--traced", action="store_true", help="also one traced run per workload")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    summary = {"seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    for workload in workloads:
        runs = [[] for _ in range(args.sets)]
        for i, seed in enumerate(seeds):
            order = list(range(args.sets))
            if i % 2:
                order.reverse()
            for k in order:
                run = run_once(command, workload, seed, seconds, False)
                runs[k].append(run)
                flag = "" if run["correct"] else f" NOT CORRECT {run['notes']}"
                print(f"  {workload} set {k + 1} seed {seed}: {run['wall_s']:.1f}s "
                      + " ".join(f"{n}={v:.4g}" for n, v in run["metrics"].items()) + flag, flush=True)
        entry = {"sets": []}
        for k, set_runs in enumerate(runs):
            stats = {}
            print(f"{workload} set {k + 1}:")
            for name in metrics:
                s = summarize([r["metrics"][name] for r in set_runs])
                stats[name] = s
                bound = metrics[name]["bound"]
                flag = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  <-- above a third of its bound"
                print(f"  {name:16} median={s['median']:.5g} q1={s['q1']:.5g} q3={s['q3']:.5g} "
                      f"spread={s['spread']:.3f} bound={bound}{flag}")
            entry["sets"].append({"metrics": stats, "runs": set_runs})
        if args.sets > 1:
            entry["second_vs_first"] = {}
            print(f"{workload}: set 2 median worse than set 1's by")
            for name, m in metrics.items():
                w = worse_by(entry["sets"][0]["metrics"][name]["median"],
                             entry["sets"][1]["metrics"][name]["median"], m["better"])
                entry["second_vs_first"][name] = w
                flag = "" if w <= m["bound"] else "  <-- beyond its bound"
                print(f"  {name:16} {w:+.3f} bound={m['bound']}{flag}")
        if args.traced:
            run = run_once(command, workload, seeds[0], seconds, True)
            entry["traced"] = run
            traced = run["metrics"]
            untraced = entry["sets"][0]["metrics"]["ops_per_s"]["median"]
            print(f"  traced: {run['wall_s']:.1f}s trace.ops_per_s={traced['trace.ops_per_s']:.5g} "
                  f"trace.overhead_pct={traced['trace.overhead_pct']:.3g} "
                  f"(untraced ops_per_s median {untraced:.5g})")
        summary["workloads"][workload] = entry
        if args.out:
            with open(args.out, "w") as f:
                json.dump(summary, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
