#!/usr/bin/env python3
"""The planner benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the p2 library from src/
plus the benchmark runner) as a Release CMake project under
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks every
output against a serial reference, and prints the metrics BENCHMARK.json
names: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full result, stamped with
the machine and build it ran on, is written to
$CARGO_TARGET_DIR/perfbench-out/result-<workload>-seed<N>-trace<T>.json
(compare two with perfbench/compare.py).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("grid_measured", "grid_guided", "wire_interactive", "shard_plane")
BINARY_TIMEOUT_S = 170

# Counters that are a pure function of the workload's inputs: they must
# repeat exactly across runs and seeds (compare.py fails when one rises).
# Attribution counters (deferred lookups, per-worker grants, retries) depend
# on thread timing and are deliberately not in this set.
DETERMINISTIC = (
    "core.enumerate.placements",
    "core.synthesize.runs",
    "core.synthesize.states_visited",
    "core.lower.programs",
    "cost.predict.programs",
    "runtime.measure.programs",
    "runtime.flowsim.flows",
    "runtime.flowsim.rate_recomputations",
    "engine.pipeline.guided_skipped",
)

# Replayed layer spans whose self time trace.coverage accounts for: the
# stages inside the service's PipelineStats synthesis and evaluation time.
COVERED_SPANS = ("core.lower", "core.to_string", "cost.predict",
                 "runtime.compile", "runtime.flowsim")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "service.h")):
        fail("no planner sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the planner and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(raw):
    untraced = [it for it in raw["iterations"] if not it["traced"]]
    latency = [ms for it in untraced for ms in it["latency_ms"]]
    tail_ms, tail_iterations, per_iteration = stats.tail(
        [it["latency_ms"] for it in untraced])
    attempted, failed = raw["attempted"], raw["failed"]

    def median_of(key):
        return statistics.median([it[key] for it in untraced])

    metrics = {
        "setup_s": (median_of("setup_s"), "s"),
        "makespan_s": (median_of("makespan_s"), "s"),
        "plans_per_s": (statistics.median(
            [(it["attempted"] - it["failed"]) / it["makespan_s"]
             for it in untraced]), "1/s"),
        "latency_p50_ms": (stats.percentile(latency, 50), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    for name, value in sorted(raw["quality"].items()):
        metrics[name] = (value, "share" if name.endswith("share") else
                         "ratio" if name.endswith("accuracy") else "x")
    info = {"latency_samples": len(latency),
            "latency_samples_per_iteration": per_iteration,
            "iterations": tail_iterations}
    return metrics, info


def per_layer(raw):
    layers, self_s = raw["layers"], raw["self_s"]
    iterations = raw["iterations"]
    traced = [it for it in iterations if it["traced"]]
    untraced = [it for it in iterations if not it["traced"]]
    last = traced[-1]

    def count(name):
        return (layers.get(name, 0.0), "count")

    def busy(span):
        return (self_s.get(span, 0.0), "s")

    lookups = layers.get("engine.cache.lookups", 0.0)
    work_s = layers.get("engine.service.work_s", 0.0)
    plane_calls = layers.get("server.plane.lookup_calls", 0.0)
    covered = sum(self_s.get(span, 0.0) for span in COVERED_SPANS)
    if layers.get("core.synthesize.runs", 0.0) > 0:
        # The service synthesized (cold cache): the replay's one synthesis
        # per signature is part of what work_s covers.
        covered += self_s.get("core.synthesize", 0.0)
    overhead = raw["overhead_ms"]
    metrics = {
        "core.enumerate.placements": count("core.enumerate.placements"),
        "core.synthesize.runs": count("core.synthesize.runs"),
        "core.synthesize.states_visited":
            count("core.synthesize.states_visited"),
        "core.synthesize.busy_s": busy("core.synthesize"),
        "core.hierarchy.busy_s": busy("core.hierarchy"),
        "core.lower.programs": count("core.lower.programs"),
        "core.lower.busy_s": busy("core.lower"),
        "core.to_string.busy_s": busy("core.to_string"),
        "cost.predict.programs": count("cost.predict.programs"),
        "cost.predict.busy_s": busy("cost.predict"),
        "runtime.measure.programs": count("runtime.measure.programs"),
        "runtime.compile.busy_s": busy("runtime.compile"),
        "runtime.flowsim.busy_s": busy("runtime.flowsim"),
        "runtime.flowsim.flows": count("runtime.flowsim.flows"),
        "runtime.flowsim.rate_recomputations":
            count("runtime.flowsim.rate_recomputations"),
        "engine.cache.lookups": count("engine.cache.lookups"),
        "engine.cache.hit_ratio": (
            layers.get("engine.cache.hits", 0.0) / lookups if lookups else 0.0,
            "ratio"),
        "engine.cache.cross_tenant_hits":
            count("engine.cache.cross_tenant_hits"),
        "engine.cache.deferred_lookups":
            count("engine.cache.deferred_lookups"),
        "engine.cache.waiter_parks": count("engine.cache.waiter_parks"),
        "engine.pipeline.guided_skipped":
            count("engine.pipeline.guided_skipped"),
        "engine.cache_store.load_s": busy("engine.cache_store.load"),
        "engine.cache_store.entries_loaded":
            count("engine.cache_store.entries_loaded"),
        "engine.cache_store.disk_hits": count("engine.cache_store.disk_hits"),
        "engine.service.work_s": (work_s, "s"),
        "engine.service.busy_share": (
            work_s / (last["threads"] * last["makespan_s"]), "share"),
        "engine.render.busy_s": busy("engine.render"),
        "engine.merge.busy_s": busy("engine.merge"),
        "server.wire.frames": count("server.wire.frames"),
        "server.wire.bytes": (layers.get("server.wire.bytes", 0.0), "B"),
        "server.wire.encode_s": busy("server.wire.encode"),
        "server.wire.decode_s": busy("server.wire.decode"),
        "server.overhead_ms": (
            stats.percentile(overhead, 50) if overhead else 0.0, "ms"),
        "server.plane.lookups": count("server.plane.lookups"),
        "server.plane.grants": count("server.plane.grants"),
        "server.plane.retries": count("server.plane.retries"),
        "server.plane.publishes": count("server.plane.publishes"),
        "server.plane.remote_hits": count("server.plane.remote_hits"),
        "server.plane.remote_errors": count("server.plane.remote_errors"),
        "server.plane.lookup_ms": (
            1e3 * layers.get("server.plane.lookup_s", 0.0) / plane_calls
            if plane_calls else 0.0, "ms"),
        "trace.coverage": (covered / work_s if work_s else 0.0, "ratio"),
        "trace.overhead": (
            statistics.median([it["makespan_s"] for it in traced]) /
            statistics.median([it["makespan_s"] for it in untraced]) - 1.0,
            "ratio"),
    }
    info = {"traced_iterations": len(traced),
            "untraced_iterations": len(untraced),
            "oracle_check_s": self_s.get("oracle.check_lowered", 0.0)}
    return metrics, info


def main():
    args = parse_args()
    base = work_dir()
    out_dir = os.path.join(base, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    binary = build(os.path.join(base, "perfbench-build"))

    load_before = os.getloadavg()
    try:
        done = subprocess.run(
            [binary, "--workload=" + args.workload,
             "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
             "--trace=%d" % args.trace, "--out-dir=" + out_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, BINARY_TIMEOUT_S))
    load_after = os.getloadavg()
    if done.returncode != 0:
        fail("perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    raw = json.loads(lines[-1])

    build_info = raw["build"]
    release = build_info["build_type"] == "Release" and build_info["ndebug"]
    if not release:
        print("perfbench: WARNING: not a Release build with NDEBUG (%s)"
              % build_info, file=sys.stderr)
    stamp = {
        "nproc": os.cpu_count(),
        "load_before": list(load_before),
        "load_after": list(load_after),
        "compiler": build_info["compiler"],
        "compiler_version": build_info["compiler_version"],
        "build_type": build_info["build_type"],
        "ndebug": build_info["ndebug"],
        "release": release,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
    }
    if args.trace:
        metrics, info = per_layer(raw)
    else:
        metrics, info = end_to_end(raw)
    info["reference_s"] = raw["reference_s"]
    info["errors"] = raw["errors"]
    correct = raw["failed"] == 0 and raw["error_count"] == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "deterministic": {name: metrics[name][0] for name in DETERMINISTIC
                          if name in metrics},
        "info": info,
    }
    path = os.path.join(out_dir, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")

    print("%s seed=%d trace=%d nproc=%s load=%.2f->%.2f %s %s"
          % (args.workload, args.seed, args.trace, stamp["nproc"],
             load_before[0], load_after[0], stamp["compiler"],
             stamp["build_type"]))
    for name, (value, unit) in metrics.items():
        print("  %-38s %14.6g %s" % (name, value, unit))
    if not args.trace:
        print("  latency tail = median over %d iterations of the slowest of"
              " %d requests; p50 over %d samples"
              % (info["iterations"], info["latency_samples_per_iteration"],
                 info["latency_samples"]))
    for error in raw["errors"]:
        print("  ERROR " + error)
    print("  result: " + os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
