#!/usr/bin/env python3
"""Determinism self-check of the request benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/selftest.py

For each workload it makes short runs (a few cycles each) and checks:

  * two traced runs at one seed serve the same request sequence and give
    identical exact results: the stream digest (request sequence, winner
    mappings, served kernels, output bits), tflops_geomean, cuda_kb_mean,
    the failure count, and every per-layer count and fraction metric;
  * an untraced run at that seed gives the same digest and exact metrics
    as the traced ones (tracing observes, it does not change the work);
  * a run at another seed serves a different sequence;
  * every run passes its output checks;
  * the metric names and units each mode prints are exactly the ones
    BENCHMARK.json lists, when that file is present at the repository root.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT = {"tune-emit": 16, "serve-mix": 2048, "verify-diff": 12}
SEED, OTHER_SEED = 7, 8


def bench(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--requests", str(SHORT[workload]), "--trace", str(trace)],
        stdout=subprocess.PIPE, universal_newlines=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0:
        sys.exit("%s seed %d trace %d exited %d" %
                 (workload, seed, trace, out.returncode))
    exact = next(l for l in lines if l.startswith("exact:")).split()
    result = json.loads(lines[-1])
    result["exact"] = {"tflops_geomean": exact[2], "cuda_kb_mean": exact[4],
                       "digest": exact[6]}
    return result


def exact_layers(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "fraction")}


def units(metrics):
    """{name: unit} of a result or of a BENCHMARK.json metric list."""
    if isinstance(metrics, dict):
        return {n: m["unit"] for n, m in metrics["metrics"].items()}
    return {m["name"]: m["unit"] for m in metrics}


def expect(ok, what):
    print("  %-4s %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def main():
    binary = run.build()
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.isfile(spec_path) else None
    for workload in SHORT:
        print(workload)
        first = bench(binary, workload, SEED, 1)
        second = bench(binary, workload, SEED, 1)
        untraced = bench(binary, workload, SEED, 0)
        other = bench(binary, workload, OTHER_SEED, 0)
        for r in (first, second, untraced, other):
            expect(r["correct"] and r["failed"] == 0,
                   "run passed its output checks")
        expect(first["exact"] == second["exact"],
               "same seed, same sequence and exact results %s" %
               first["exact"])
        expect(first["failed"] == second["failed"], "same failure count")
        expect(exact_layers(first) == exact_layers(second),
               "same per-layer counts and fractions")
        expect(untraced["exact"] == first["exact"],
               "tracing leaves the sequence and exact results unchanged")
        expect(other["exact"]["digest"] != first["exact"]["digest"],
               "another seed serves another sequence")
        if spec:
            expect(units(untraced) == units(spec["end_to_end"]),
                   "untraced metrics match BENCHMARK.json end_to_end")
            expect(units(first) == units(spec["per_layer"]),
                   "traced metrics match BENCHMARK.json per_layer")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
