#!/usr/bin/env python3
"""Summarize or compare benchmark records (records.jsonl from perfbench/run.py).

    python3 perfbench/compare.py RECORDS.jsonl            # median and spread per metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl     # NEW against BASE

Records are grouped by machine fingerprint (CPU model, nproc, GEMM/LUT
dispatch tiers, compiler, build type, thread counts) and workload; only
groups with the same fingerprint are ever compared. A record made while
the hypervisor took more than MAX_STEAL_PCT of the machine's CPU time
(its info field host.steal_pct) measured the host, not the code, and is
left out; the count left out is printed. The spread is the
distance between the first and third quartile as a share of the median.
A comparison fails (exit 1) when a metric's NEW median is worse than the
BASE median by more than the bound BENCHMARK.json gives it.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_STEAL_PCT = 5.0


def load(path):
    """{(fingerprint, workload): {metric: [values]}} over untraced records."""
    groups = defaultdict(lambda: defaultdict(list))
    stolen = 0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace") or not rec["result"]["correct"]:
                continue
            if rec.get("info", {}).get("host.steal_pct", 0.0) > MAX_STEAL_PCT:
                stolen += 1
                continue
            key = (json.dumps(rec.get("fingerprint", {}), sort_keys=True), rec["workload"])
            for name, m in rec["result"]["metrics"].items():
                groups[key][name].append(m["value"])
    if stolen:
        print(f"{path}: {stolen} record(s) with host.steal_pct > {MAX_STEAL_PCT} left out")
    return groups


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base = load(sys.argv[1])
    if len(sys.argv) == 2:
        for (fp, workload), metrics in sorted(base.items()):
            print(f"{workload}  {fp}")
            for name, values in sorted(metrics.items()):
                print(f"  {name:28s} median {statistics.median(values):12.4f}  "
                      f"spread {spread(values):7.3f}  n={len(values)}")
        return 0

    new = load(sys.argv[2])
    regressed = False
    for key in sorted(set(base) | set(new)):
        fp, workload = key
        if key not in base or key not in new:
            print(f"{workload}: no record with the same fingerprint on both sides, skipped")
            continue
        print(f"{workload}  {fp}")
        for name, m in sorted(spec.items()):
            b, n = base[key].get(name), new[key].get(name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
            verdict = "ok"
            if worse > m["bound"]:
                verdict, regressed = "REGRESSED", True
            print(f"  {name:28s} {mb:12.4f} -> {mn:12.4f}  worse by {worse:+7.3f} "
                  f"(bound {m['bound']})  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
