#!/usr/bin/env python3
"""Steadiness check for the benchmark, run from the root of the repository.

    python3 perfbench/steady.py spread --workload W --seeds 1-10 [--seconds S]
    python3 perfbench/steady.py order  --workload W --seeds 1-3  [--seconds S]
    python3 perfbench/steady.py compare

`spread` runs run.py once per seed and reports, for every end-to-end
metric, the interquartile range of its values as a share of their median
(statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json and a third of it.

`order` runs every seed twice, once with the configs in forward order and
once in reverse, and reports the relative difference of the two medians of
every metric against its bound: configs must not depend on run order.

Both append their report as one JSON line to perfbench/steadiness.jsonl
when --record is given, and exit 1 when a spread or a difference exceeds
its bound.

`compare` reads perfbench/steadiness.jsonl and, for every workload with
two recorded spread reports, reports the relative difference of the
medians of the last two against each metric's bound: two sets of runs of
the same code, taken some time apart, must agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

RECORD = "perfbench/steadiness.jsonl"

def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run(workload, seed, seconds, order="rotate"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--order", order]
    t0 = time.time()
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    last = r.stdout.strip().splitlines()[-1]
    res = json.loads(last)
    if r.returncode != 0 or not res["correct"]:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("run failed: " + " ".join(cmd))
    return {k: v["value"] for k, v in res["metrics"].items()}, wall


def rel_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def rel_diff(a, b):
    """|a - b| as a share of the smaller of the two, so that a change
    either way is held to the bound."""
    if a == b:
        return 0.0
    low = min(abs(a), abs(b))
    return abs(a - b) / low if low else float("inf")


def compare(bounds):
    last = {}
    with open(RECORD) as f:
        for line in f:
            r = json.loads(line)
            if r["mode"] == "spread":
                last.setdefault(r["workload"], []).append(r)
    ok = True
    for workload, reports in sorted(last.items()):
        if len(reports) < 2:
            continue
        first, second = reports[-2], reports[-1]
        print("%s: seeds %s at %s vs seeds %s at %s" % (
            workload, first["seeds"], first.get("recorded_at", "?"), second["seeds"],
            second.get("recorded_at", "?")))
        for name in sorted(bounds):
            a, b = first["metrics"][name]["median"], second["metrics"][name]["median"]
            d = rel_diff(a, b)
            flag = ""
            if d > bounds[name]:
                flag, ok = "  OVER BOUND", False
            print("  %-22s %-12.6g %-12.6g diff=%.4f bound=%.2f%s" % (name, a, b, d, bounds[name], flag))
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["spread", "order", "compare"])
    p.add_argument("--workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--record", action="store_true")
    a = p.parse_args()
    spec, bounds = load_spec()
    if a.mode == "compare":
        sys.exit(0 if compare(bounds) else 1)
    if not a.workload:
        p.error("--workload is required for " + a.mode)
    seconds = a.seconds or spec["run_seconds"]
    ok = True
    report = {"mode": a.mode, "workload": a.workload, "seeds": a.seeds, "seconds": seconds}
    if a.mode == "spread":
        runs, walls = [], []
        for s in seeds(a.seeds):
            m, w = run(a.workload, s, seconds)
            runs.append(m)
            walls.append(w)
            print("seed %d: %.1fs wall" % (s, w), flush=True)
        rows = {}
        for name in sorted(bounds):
            vals = [r[name] for r in runs]
            sp = rel_spread(vals)
            rows[name] = {"median": statistics.median(vals), "spread": round(sp, 4)}
            flag = ""
            if sp > bounds[name]:
                flag, ok = "  OVER BOUND", False
            elif sp > bounds[name] / 3:
                flag = "  over bound/3"
            print("%-22s median=%-12.6g spread=%.4f bound=%.2f%s"
                  % (name, statistics.median(vals), sp, bounds[name], flag))
        report.update(metrics=rows, max_wall_s=round(max(walls), 1))
    else:
        fwd, rev = {}, {}
        for s in seeds(a.seeds):
            for tag, acc in (("forward", fwd), ("reverse", rev)):
                m, w = run(a.workload, s, seconds, tag)
                for k, v in m.items():
                    acc.setdefault(k, []).append(v)
                print("seed %d %s: %.1fs wall" % (s, tag, w), flush=True)
        rows = {}
        for name in sorted(bounds):
            f, r = statistics.median(fwd[name]), statistics.median(rev[name])
            d = rel_diff(f, r)
            rows[name] = {"forward": f, "reverse": r, "diff": round(d, 4)}
            flag = ""
            if d > bounds[name]:
                flag, ok = "  OVER BOUND", False
            print("%-22s forward=%-12.6g reverse=%-12.6g diff=%.4f bound=%.2f%s"
                  % (name, f, r, d, bounds[name], flag))
        report.update(metrics=rows)
    report["within_bounds"] = ok
    report["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if a.record:
        with open(RECORD, "a") as out:
            out.write(json.dumps(report) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
