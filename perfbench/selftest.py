#!/usr/bin/env python3
"""Self-test of the POPS benchmark: a reduced-size run of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload of BENCHMARK.json,
and for the harness-only flow_vt, it checks that

  * an untraced run prints every end-to-end metric with its unit, as a
    line of its own and in the JSON result on the last line;
  * a traced run does the same for every per-layer metric;
  * a run with one deliberately corrupted expected result (--corrupt)
    counts it as failed, reports correct=false and exits non-zero.

Workloads of BENCHMARK.json must also pass their checks uncorrupted.
flow_vt's correctness is only reported (see README.md): its final_delay
check fails on every call, so every corrupted run must also report a
failed check that the uncorrupted run does not.  Exits 1 when a property does
not hold.
"""
import json
import re
import subprocess
import sys

SECONDS = "2"


def run(workload, trace, *extra):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)}: no output; stderr:\n{p.stderr}")
    return p.returncode, lines, json.loads(lines[-1])


def failed_checks(lines):
    return {l for l in lines if l.startswith("# FAILED ")}


def check_metrics(tag, lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{tag}: result keys {sorted(result)}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, tag
    assert isinstance(result["failed"], int), tag
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, \
        f"{tag}: metrics {sorted(set(got) ^ {m['name'] for m in declared})} differ"
    for m in declared:
        v = got[m["name"]]
        assert set(v) == {"value", "unit"}, f"{tag}: {m['name']} keys"
        assert v["unit"] == m["unit"], f"{tag}: {m['name']} unit {v['unit']}"
        assert isinstance(v["value"], (int, float)), f"{tag}: {m['name']} value"
        pat = re.compile(r"^%s\s+\S+\s+%s$" % (re.escape(m["name"]), re.escape(m["unit"])))
        assert any(pat.match(l) for l in lines), f"{tag}: {m['name']} not printed"


def main():
    bench = json.load(open("BENCHMARK.json"))
    gated = [w["name"] for w in bench["workloads"]]
    problems = []
    for w in gated + ["flow_vt"]:
        try:
            code, lines, r = run(w, 0)
            plain_failures = failed_checks(lines)
            check_metrics(f"{w} untraced", lines, r, bench["end_to_end"])
            assert code == (0 if r["correct"] else 1), f"{w}: exit {code}"
            if w in gated:
                assert r["correct"] and r["failed"] == 0, f"{w}: checks failed"
            else:
                print(f"{w}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
            code, lines, r = run(w, 1)
            check_metrics(f"{w} traced", lines, r, bench["per_layer"])
            code, lines, rc = run(w, 0, "--corrupt")
            assert not rc["correct"] and rc["failed"] >= 1 and code == 1, \
                f"{w}: a corrupted expected result was not counted"
            assert failed_checks(lines) - plain_failures, \
                f"{w}: a corrupted expected result added no failed check"
            print(f"{w}: ok")
        except (AssertionError, json.JSONDecodeError, subprocess.TimeoutExpired) as e:
            problems.append(f"{w}: {e}")
            print(f"{w}: FAILED: {e}")
    if problems:
        sys.exit(1)
    print("selftest: all properties hold")


if __name__ == "__main__":
    main()
