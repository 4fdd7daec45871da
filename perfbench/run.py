#!/usr/bin/env python3
"""Benchmark command: builds the worker, runs one workload over the four
scheme configs and prints every metric, by name and with its unit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of the repository. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics, measured with
telemetry off; with --trace 1 it holds the per-layer metrics of a
separate traced run. Lines before it are for people: the host's core
count, one line per config with its sample count, and every failure.

Each config runs in its own worker process (bench.exe cell ...), so it
starts from fresh runtime state; the order of the configs rotates with
the seed and the round. Every cell checks its outputs and checks for
leaks after teardown; any failure makes the command exit 1.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

CONFIGS = ["HP", "RCHP", "EBR", "RCEBR"]
RC_CONFIGS = ["RCHP", "RCEBR"]
WORKLOADS = ["stack-pinned", "tree-read90"]
# Working domains of each cell (the main domain is worker 0). The
# kv-zipf-p2 cells measure the KV layer in traced runs only: with two
# domains on this kind of 2-core shared host their throughput and
# backlog spread over 0.25 from run to run.
DOMAINS = {"stack-pinned": 1, "tree-read90": 1, "kv-zipf-p2": 2}
# Rounds of the telemetry-off run: each round runs every config once,
# so each config samples the host's speed at eight points of the run.
ROUNDS = 8
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".bench_out"
CELL_GRACE_S = 120

PER_CFG = [
    ("gc.minor_words_per_op", "words/op"),
    ("gc.promoted_words_per_op", "words/op"),
    ("gc.major_collections_per_mop", "1/Mop"),
    ("gc.pause_p99_us", "us"),
    ("smr.acquire_per_op", "1/op"),
    ("smr.confirm_retry_frac", "ratio"),
    ("smr.retire_per_op", "1/op"),
    ("smr.eject_scans_per_op", "1/op"),
    ("smr.ejected_per_scan", "1/scan"),
    ("smr.reclaim_latency_p99_ticks", "ticks"),
    ("ds.peak_live", "count"),
    ("ds.uaf_retries_per_op", "1/op"),
    ("obs.overhead_pct", "%"),
    ("lat.p99_us", "us"),
]
PER_RC = [
    ("ar.eject_batch_p50", "count"),
    ("cdrc.snapshot_fast_frac", "ratio"),
    ("cdrc.deferred_decrements_per_op", "1/op"),
]
# Read from a kv-zipf-p2 cell, where two domains share control blocks.
PER_KV = [
    ("sticky.cas_fail_per_op", "1/op"),
    ("sticky.help_per_op", "1/op"),
    ("kv.get_p99_us", "us"),
    ("kv.put_p99_us", "us"),
    ("kv.remove_p99_us", "us"),
    ("kv.overwrite_per_op", "1/op"),
    ("kv.expiry_per_op", "1/op"),
    ("kv.max_shard_backlog", "count"),
]


def kernel_unit(name):
    if name.startswith("atomics."):
        return "1/op"
    return "ns/op"


def log(msg):
    print(msg, flush=True)


def die(msg):
    print("error: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("neither dune nor opam is on PATH")


def build():
    if not os.path.isdir("lib") or not os.path.isfile("dune-project"):
        die("run this from the root of the repository: lib/ and dune-project are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0 or not os.path.isfile(BENCH_EXE):
        die("build failed: " + " ".join(cmd))


def bench(args, timeout):
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(OUT_DIR))
    r = subprocess.run([BENCH_EXE] + [str(a) for a in args], env=env, capture_output=True,
                       text=True, timeout=timeout)
    if r.stderr:
        sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, "bench.exe %s exited %d: %s" % (" ".join(map(str, args)), r.returncode,
                                                     (r.stderr.strip().splitlines() or ["?"])[-1])
    return json.loads(lines[-1]), None


def cell(workload, cfg, seed, seconds, trace, spans):
    args = ["cell", workload, cfg, seed, "%.3f" % seconds, 1 if trace else 0, spans]
    # A traced cell runs three passes.
    return bench(args, timeout=(3 if trace else 1) * seconds + CELL_GRACE_S)


def order(seed, rnd, mode):
    if mode == "forward":
        return list(CONFIGS)
    if mode == "reverse":
        return list(reversed(CONFIGS))
    k = (seed + rnd) % len(CONFIGS)
    return CONFIGS[k:] + CONFIGS[:k]


def percentile(hist, p):
    """Nearest-rank percentile of a Lat histogram dump [[lower, width,
    count], ...] (several dumps may be concatenated, and their bounds
    scaled), interpolated linearly inside its bucket; nan when empty."""
    merged = {}
    for lower, width, c in hist:
        merged[(lower, width)] = merged.get((lower, width), 0) + c
    n = sum(merged.values())
    rank = max(1, math.ceil(p * n / 100 - 1e-9))
    cum = 0
    for (lower, width), c in sorted(merged.items()):
        if cum + c >= rank:
            return lower + width * (rank - cum) / (c + 1)
        cum += c
    return float("nan")


def mops(windows, ref=None):
    """Throughput of one or more cells, from their windows [[[Mops/s,
    probe ns], ...] per worker] (several cells pooled): the sum over
    workers of each worker's median window rate. With [ref], each
    window's rate is scaled by its probe over the reference probe, to
    the reference machine speed. None when a worker closed no window."""
    total = 0.0
    for ws in zip(*windows):
        rates = [rate * pr / ref if ref else rate for cell_ws in ws for rate, pr in cell_ws]
        if not rates:
            return None
        total += statistics.median(rates)
    return total


def cell_probe(res):
    """The machine-speed probe of a cell: the median over its windows."""
    return statistics.median(pr for ws in res["windows"] for _, pr in ws)


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_cell(self, workload, cfg, res, err):
        if err:
            self.problems.append("%s/%s: %s" % (workload, cfg, err))
            return False
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        for e in res["errors"]:
            self.problems.append("%s/%s: operation raised or failed a check: %s" % (workload, cfg, e))
        for c in res["checks"]:
            self.problems.append("%s/%s: check failed: %s" % (workload, cfg, c))
        return True


def host_guard(workload):
    """Refuse a workload that needs more working domains than the host
    has cores or OCaml recommends; returns that limit."""
    info, err = bench(["info"], timeout=60)
    if err:
        die(err)
    nproc = len(os.sched_getaffinity(0))
    rdc = info["recommended_domain_count"]
    log("host: nproc=%d recommended_domain_count=%d workload=%s domains=%d"
        % (nproc, rdc, workload, DOMAINS[workload]))
    if DOMAINS[workload] > min(nproc, rdc):
        die("%s needs %d working domains but this host has nproc=%d, recommended_domain_count=%d"
            % (workload, DOMAINS[workload], nproc, rdc))
    return min(nproc, rdc)


def end_to_end(a, out):
    per_cell = a.seconds / (ROUNDS * len(CONFIGS))
    cells = {c: [] for c in CONFIGS}
    for rnd in range(ROUNDS):
        for cfg in order(a.seed, rnd, a.order):
            res, err = cell(a.workload, cfg, a.seed, per_cell, False, os.devnull)
            if out.add_cell(a.workload, cfg, res, err):
                cells[cfg].append(res)
    metrics = {}
    setup = 0.0
    for cfg in CONFIGS:
        rs = cells[cfg]
        if not rs:
            continue
        # Rates, latencies and set-up times are reported at the
        # reference machine speed (runloop.ml): a window's rate is
        # scaled by its probe over the reference probe, a cell's
        # latencies and a set-up time by the inverse. The cores of a
        # shared host change speed by up to 2x for tens of minutes; over
        # fifteen runs spread across an hour the scaled figures spread
        # 1.2 to 5 times less than unscaled ones. The latency
        # metric is p90 over the pooled, scaled histograms of the
        # cells: on a 2-vCPU shared VM p99 spread up to 0.33 over ten
        # seeds on tree-read90, p90 0.13; p99 is a per-layer metric.
        ref = rs[0]["probe_ref_ns"]
        if not all(ws for r in rs for ws in r["windows"]):
            out.problems.append("%s/%s: a cell closed no window; run longer" % (a.workload, cfg))
            continue
        m = mops([r["windows"] for r in rs], ref)
        raw = mops([r["windows"] for r in rs])
        lat = [[lo * k, w * k, c] for r in rs for k in [ref / cell_probe(r)] for lo, w, c in r["lat"]]
        p90, p99 = percentile(lat, 90) / 1e3, percentile(lat, 99) / 1e3
        samples = sum(c for r in rs for _, _, c in r["lat"])
        # Each cell's peak backlog; the metric is their median, since
        # RCHP's backlog on stack-pinned grows with the operations a
        # cell completes, so its maximum follows the fastest cell.
        backlog = statistics.median(r["peak_backlog"] for r in rs)
        setup += statistics.median(dt * ref / pr for r in rs for dt, pr in r["setup_s"])
        log("%-6s mops=%.4f Mops/s (unscaled %.4f; %d windows)  p90=%.3f us  p99=%.3f us"
            " (%d samples)  peak_backlog=%g"
            % (cfg, m, raw, sum(len(ws) for r in rs for ws in r["windows"]), p90, p99, samples,
               backlog))
        metrics["mops." + cfg] = (m, "Mops/s")
        metrics["p90_us." + cfg] = (p90, "us")
        metrics["peak_backlog." + cfg] = (backlog, "count")
    metrics["setup_s"] = (setup, "s")
    with open(os.path.join(OUT_DIR, "cells-%s-seed%d.json" % (a.workload, a.seed)), "w") as f:
        json.dump(cells, f)
    log("failed_frac=%.6g (%d of %d operations)"
        % (out.failed / max(1, out.attempted), out.failed, out.attempted))
    return metrics


def value(layer, name, where):
    v = layer.get(name)
    if v is None or (isinstance(v, float) and math.isnan(v)):
        log("note: %s has no samples in %s; reported as 0" % (name, where))
        return 0.0
    return v


def traced_figures(res):
    """The per-layer figures a traced cell leaves to run.py: latency
    and pause percentiles, and the cost of telemetry, which compares
    the traced pass's throughput with the telemetry-off pass's."""
    ref = res["probe_ref_ns"]
    off, on = mops([res["windows"]], ref), mops([res["traced_windows"]], ref)
    kinds = res["kinds"]
    us = lambda hist: percentile(hist, 99) / 1e3
    return {
        "lat.p99_us": us(res["lat"]),
        "gc.pause_p99_us": us(res["gc_pauses"]),
        "kv.get_p99_us": us(kinds.get("kv.get", [])),
        "kv.put_p99_us": us(kinds.get("kv.put", [])),
        "kv.remove_p99_us": us(kinds.get("kv.remove", [])),
        "obs.overhead_pct": (off - on) / off * 100 if off and on else None,
    }


def per_layer(a, out, spans, max_domains):
    # A traced cell runs three passes of per_cell seconds.
    per_cell = a.seconds / (3 * len(CONFIGS))
    metrics = {}
    dropped = 0
    for cfg in order(a.seed, 0, a.order):
        res, err = cell(a.workload, cfg, a.seed, per_cell, True, spans)
        if not out.add_cell(a.workload, cfg, res, err):
            continue
        layer = dict(res["layer"], **traced_figures(res))
        dropped += res["spans_dropped"]
        where = "%s/%s" % (a.workload, cfg)
        for name, unit in PER_CFG:
            metrics[name + "." + cfg] = (value(layer, name, where), unit)
        if cfg in RC_CONFIGS:
            for name, unit in PER_RC:
                metrics[name + "." + cfg] = (value(layer, name, where), unit)
    # The KV layer and cross-domain sticky-counter contention: one
    # short traced kv-zipf-p2 cell per RC config.
    for cfg in RC_CONFIGS:
        if DOMAINS["kv-zipf-p2"] > max_domains:
            out.problems.append("kv layer not measured: kv-zipf-p2 needs %d domains"
                                % DOMAINS["kv-zipf-p2"])
            continue
        res, err = cell("kv-zipf-p2", cfg, a.seed, per_cell / 2, True, spans)
        if out.add_cell("kv-zipf-p2", cfg, res, err):
            layer = dict(res["layer"], **traced_figures(res))
            dropped += res["spans_dropped"]
            for name, unit in PER_KV:
                metrics[name + "." + cfg] = (value(layer, name, "kv-zipf-p2/" + cfg), unit)
    kern, err = bench(["kernels", "%.3f" % max(0.05, a.seconds / 200), spans], timeout=170)
    if err:
        out.problems.append("kernels: " + err)
    else:
        dropped += kern["spans_dropped"]
        for name, v in kern["values"].items():
            metrics[name] = (value(kern["values"], name, "kernels"), kernel_unit(name))
    # Each worker keeps its most recent Spans.capacity spans.
    log("spans: %s (%d older spans dropped by the per-worker rings)" % (spans, dropped))
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time of the whole run, split over configs and rounds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--order", choices=["rotate", "forward", "reverse"], default="rotate",
                   help="config order; rotate (the default) turns it with seed and round")
    a = p.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    max_domains = host_guard(a.workload)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (a.workload, a.seed))
    if a.trace:
        open(spans, "w").close()
    out = Outcome()
    if a.trace:
        metrics = per_layer(a, out, spans, max_domains)
    else:
        metrics = end_to_end(a, out)
    for m in out.problems:
        log("FAILED " + m)
    correct = not out.problems and out.failed == 0
    result = {
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
