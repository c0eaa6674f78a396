#!/usr/bin/env python3
"""Steadiness evidence for the POPS benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--new]
                                [WORKLOAD ...]

Run from the root of a checkout.  For each workload (default: those of
BENCHMARK.json) it makes one set of RUNS untraced runs with seeds
FIRST-SEED, FIRST-SEED+1, ... and one traced run, then records for every
end-to-end metric its values, median and quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median next to the metric's bound, and the
tracing overhead: the traced run's optimize time and p50 latency against
the untraced medians.

Each set is appended to the workload's "sets" in perfbench/steadiness.json
(--new drops the earlier sets first, after a change to the benchmark or
the code).  With two sets or more, "agreement" compares the medians of
the last two: the relative change of each metric, in the direction the
metric gets worse, against its bound.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess

OUT = "perfbench/steadiness.json"


def run(workload, seed, seconds, trace):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    r = json.loads(p.stdout.strip().splitlines()[-1])
    return p.returncode, r


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--new", action="store_true")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    doc = json.load(open(OUT)) if os.path.exists(OUT) else {"workloads": {}}
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    for w in workloads:
        seeds = list(range(a.first_seed, a.first_seed + a.runs))
        runs = []
        for s in seeds:
            code, r = run(w, s, bench["run_seconds"], 0)
            runs.append({"seed": s, "exit": code, "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(w, s, "correct" if r["correct"] else "FAILED",
                  " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        metrics = {}
        for name in bounds:
            vals = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None  # no share of 0
            metrics[name] = {"values": vals, "median": statistics.median(vals),
                             "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name],
                             "spread_within_third_of_bound":
                                 spread is not None and spread <= bounds[name] / 3}
        code, tr = run(w, a.first_seed, bench["run_seconds"], 1)
        tm = {k: v["value"] for k, v in tr["metrics"].items()}
        overhead = {}
        for traced, untraced, scale in (("trace.optimize_s", "optimize_s", 1.0),
                                        ("trace.latency_p50_ms", "latency_p50_ms", 1.0)):
            if tm.get(traced):
                base = metrics[untraced]["median"] * scale
                overhead[traced] = {"traced": tm[traced], "untraced_median": base,
                                    "ratio": tm[traced] / base}
        new_set = {
            "seeds": seeds, "runs": runs, "metrics": metrics,
            "traced_run": {"seed": a.first_seed, "exit": code, "correct": tr["correct"],
                           "metrics": tm},
            "tracing_overhead": overhead,
            "git_rev": git.stdout.strip() or "unknown",
            "nproc": os.cpu_count(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        }
        old = [] if a.new else doc["workloads"].get(w, {}).get("sets", [])
        sets = old + [new_set]
        entry = {"sets": sets}
        if len(sets) >= 2:
            m1, m2 = sets[-2]["metrics"], sets[-1]["metrics"]
            entry["agreement"] = {}
            for name in bounds:
                a1, a2 = m1[name]["median"], m2[name]["median"]
                change = (a2 - a1) / a1 if a1 else 0.0
                worse = change if better[name] == "lower" else -change
                entry["agreement"][name] = {
                    "median_before": a1, "median_after": a2, "worse_by": worse,
                    "bound": bounds[name], "within_bound": worse <= bounds[name]}
                print(f"{w:10s} {name:16s} agreement: worse by {worse:+.4f} "
                      f"(bound {bounds[name]})")
        doc["workloads"][w] = entry
        for name, m in metrics.items():
            print(f"{w:10s} {name:16s} median {m['median']:.6g} q1 {m['q1']:.6g} "
                  f"q3 {m['q3']:.6g} spread {m['spread'] if m['spread'] is None else round(m['spread'], 4)} "
                  f"bound {m['bound']} "
                  f"{'ok' if m['spread_within_third_of_bound'] else 'WIDE'}")
        print(w, "tracing overhead", json.dumps(overhead))
        with open(OUT, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
