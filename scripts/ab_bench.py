#!/usr/bin/env python3
"""Gate the micro-benches by a paired A/B against a base revision.

Usage: scripts/ab_bench.py <base-rev>

Builds <base-rev> (checked out in the git worktree build-ab/base-src) and
the working tree alike, RelWithDebInfo with functions and loops aligned so
code placement does not move the timings. Runs each bench in BENCHES for
PAIRS base/head pairs on this host, alternating which side runs first, and
gates the `metrics` list each bench writes (bench/BenchUtil.h):

  band    fails when the median per-pair ratio reads more than BAND worse
  exact   fails when any head run reads worse than its paired base run
  report  printed, never gated

A unit ending in "/s" is a rate (higher is better), any other a cost. A
base JSON without a metrics list predates the gate: nothing is gated.
Build trees and both sides' JSON (json/<side>/pairNN) stay under build-ab/
and are reused. Exit status: 0 pass, 1 regression, 2 error.
"""

import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys

PAIRS = 10
BAND = 1.25
ALIGN_FLAGS = "-falign-functions=64 -falign-loops=64"

# Every bench that writes a metrics list, with its arguments:
# bench_compile_time lists its google-benchmark cases instead of running
# them, since the gate reads only its per-pass breakdown.
BENCHES = {
    "bench_sim_hotpath": [],
    "bench_compile_time": ["--benchmark_list_tests=true"],
    "bench_autotune_guided": [],
    "bench_autotune": [],
    "bench_emit": [],
}


def json_name(bench):
    return "BENCH_" + bench[len("bench_"):] + ".json"


def metrics_of(doc):
    """name -> metric of one bench run, or None without a metrics list."""
    entries = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        return None
    return {entry["name"]: entry for entry in entries}


def finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def is_rate(unit):
    return unit.endswith("/s")


def compare(base_docs, head_docs):
    """Gates one bench: base_docs[i] and head_docs[i] are the parsed JSON of
    pair i. Returns (report lines, failure messages)."""
    head = [metrics_of(doc) for doc in head_docs]
    if None in head:
        return [], ["head JSON has no metrics list"]
    base = [metrics_of(doc) for doc in base_docs]
    lines, failures = [], []
    if None in base:
        lines.append("base JSON has no metrics list (it predates the paired "
                     "gate): nothing gated")
        base = [{}] * len(head)

    for name in dict.fromkeys(n for runs in head + base for n in runs):
        head_entries = [runs.get(name) for runs in head]
        base_entries = [runs.get(name) for runs in base]
        present = [e for e in head_entries + base_entries if e is not None]
        # The head's bench decides the gate; a dropped metric keeps the
        # base's.
        policy, unit = present[0].get("policy"), present[0].get("unit", "")
        values = [e.get("value") for e in present]
        problem = (
            f"unknown policy {policy!r}"
            if policy not in ("band", "exact", "report") else
            "non-finite value" if not all(map(finite, values)) else
            "non-positive band value" if policy == "band" and min(values) <= 0
            else f"{policy} metric missing from head"
            if None in head_entries and policy != "report" else None)
        if problem:
            failures.append(f"{name}: {problem}")
            continue
        if None in head_entries:
            lines.append(f"{name}: missing from head [{policy}]")
            continue
        if None in base_entries:
            head_median = statistics.median(e["value"] for e in head_entries)
            lines.append(f"{name}: new, head {head_median:.6g} {unit} "
                         f"[{policy}]")
            continue

        pairs = [(b["value"], h["value"])
                 for b, h in zip(base_entries, head_entries)]
        ratios = [b / h if is_rate(unit) else h / b
                  for b, h in pairs if b > 0 and h > 0]
        worse = sum(h < b if is_rate(unit) else h > b for b, h in pairs)
        verdict = "ok"
        if policy == "band" and statistics.median(ratios) > BAND:
            verdict = "REGRESSION"
            failures.append(f"{name}: median per-pair ratio "
                            f"{statistics.median(ratios):.2f}x exceeds "
                            f"{BAND:.2f}x")
        if policy == "exact" and worse:
            verdict = "REGRESSION"
            failures.append(f"{name}: exact metric reads worse in {worse} "
                            f"of {len(pairs)} pairs")
        spread = (f"{statistics.median(ratios):.2f}x "
                  f"[{min(ratios):.2f}-{max(ratios):.2f}]" if ratios else "-")
        lines.append(
            f"{name}: {statistics.median(b for b, _ in pairs):.6g} -> "
            f"{statistics.median(h for _, h in pairs):.6g} {unit}, "
            f"ratio {spread} [{policy}] {verdict}")
    return lines, failures


def run(cmd, **kwargs):
    print("+ " + shlex.join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def git(repo, *args):
    return run(["git", "-C", repo, *args], capture_output=True,
               text=True).stdout.strip()


def build(src, build_dir):
    run(["cmake", "-S", src, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DCMAKE_CXX_FLAGS=" + ALIGN_FLAGS,
         "-DCYPRESS_BUILD_TESTS=OFF", "-DCYPRESS_BUILD_EXAMPLES=OFF"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", *BENCHES], stdout=subprocess.DEVNULL)


def measure(repo, work, sha):
    """Builds both sides, runs the pairs and returns
    {bench: (base docs, head docs)}."""
    base_src = os.path.join(work, "base-src")
    if os.path.isdir(base_src):
        git(base_src, "checkout", "--detach", "--force", sha)
    else:
        git(repo, "worktree", "prune")
        git(repo, "worktree", "add", "--detach", base_src, sha)
    build(base_src, os.path.join(work, "base"))
    build(repo, os.path.join(work, "head"))

    json_root = os.path.join(work, "json")
    shutil.rmtree(json_root, ignore_errors=True)
    for pair in range(PAIRS):
        sides = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for bench, args in BENCHES.items():
            for side in sides:
                out = os.path.join(json_root, side, f"pair{pair:02d}")
                os.makedirs(out, exist_ok=True)
                subprocess.run([os.path.join(work, side, "bench", bench),
                                *args], check=True, stdout=subprocess.DEVNULL,
                               env=dict(os.environ, CYPRESS_BENCH_JSON=out))

    def load(side, bench):
        docs = []
        for pair in range(PAIRS):
            with open(os.path.join(json_root, side, f"pair{pair:02d}",
                                   json_name(bench))) as f:
                docs.append(json.load(f))
        return docs

    return {bench: (load("base", bench), load("head", bench))
            for bench in BENCHES}


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    try:
        repo = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse",
                   "--show-toplevel")
        sha = git(repo, "rev-parse", "--verify", sys.argv[1] + "^{commit}")
        docs = measure(repo, os.path.join(repo, "build-ab"), sha)
    except subprocess.CalledProcessError as err:
        print(f"error: {shlex.join(err.cmd)} failed"
              + (f": {err.stderr.strip()}" if err.stderr else ""),
              file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failures = []
    for bench, (base_docs, head_docs) in docs.items():
        lines, bench_failures = compare(base_docs, head_docs)
        print(f"== {json_name(bench)} ({PAIRS} pairs) ==")
        for line in lines:
            print("   " + line)
        failures += [f"{json_name(bench)}: {f}" for f in bench_failures]
    if failures:
        print(f"\n{len(failures)} failure(s) against base {sha}:")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"\nno regression against base {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
