#!/usr/bin/env python3
"""Diffs two perfbench result files: a baseline and a candidate.

    python3 perfbench/compare.py BASE.json NEW.json [--benchmark FILE]

Result files are what perfbench/run.py writes under
$CARGO_TARGET_DIR/perfbench-out/. Fails (exit 1) when a deterministic
counter rose, or when an end-to-end metric got worse than its
BENCHMARK.json bound allows. Wall-time deltas of the per-layer metrics are
printed as information only: a single run's layer times are too noisy to
gate on.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return json.load(f)


def relative_change(base, new):
    return (new - base) / abs(base) if base else (0.0 if new == base else
                                                  float("inf"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    bench = load(args.benchmark)
    failures = []

    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        failures.append("different workloads or trace modes: %s/%d vs %s/%d"
                        % (base["workload"], base["trace"], new["workload"],
                           new["trace"]))
    print("workload %s, trace %d" % (new["workload"], new["trace"]))
    for key in ("git_sha", "source_sha256", "build_type", "nproc",
                "load_before", "load_after", "seed"):
        print("  %-14s %s -> %s" % (key, base["stamp"].get(key),
                                    new["stamp"].get(key)))
    for side, result in (("base", base), ("new", new)):
        if not result["stamp"].get("release"):
            print("  WARNING: %s is not a Release build with NDEBUG" % side)
        if not result["correct"]:
            failures.append("%s run was not correct" % side)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for name, spec in bounds.items():
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        a = base["metrics"][name]["value"]
        b = new["metrics"][name]["value"]
        change = relative_change(a, b)
        worse = change if spec["better"] == "lower" else -change
        verdict = "ok"
        if worse > spec["bound"]:
            verdict = "WORSE than bound %.3g" % spec["bound"]
            failures.append("%s worsened by %.1f%%" % (name, 100 * worse))
        print("  %-22s %14.6g -> %-14.6g %+7.1f%%  %s"
              % (name, a, b, 100 * change, verdict))

    for name in sorted(set(base["deterministic"]) | set(new["deterministic"])):
        a = base["deterministic"].get(name)
        b = new["deterministic"].get(name)
        if a is None or b is None:
            print("  %-38s only in one file" % name)
            continue
        verdict = "same"
        if b > a:
            verdict = "ROSE"
            failures.append("deterministic counter %s rose: %g -> %g"
                            % (name, a, b))
        elif b < a:
            verdict = "fell"
        print("  %-38s %14.10g -> %-14.10g %s" % (name, a, b, verdict))

    if new["trace"]:
        print("  per-layer wall times (information only):")
        for name, metric in sorted(new["metrics"].items()):
            if metric["unit"] not in ("s", "ms"):
                continue
            if name not in base["metrics"]:
                continue
            a = base["metrics"][name]["value"]
            b = metric["value"]
            print("    %-36s %12.6g -> %-12.6g %+7.1f%%"
                  % (name, a, b, 100 * relative_change(a, b)))

    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
