#!/usr/bin/env python3
"""Builds the whole-network benchmark from source and runs one workload.

    python3 netbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/netbench
(default .bench_build/netbench); a traced run writes its Chrome trace there
as trace_<workload>_<seed>.json. The benchmark's stdout is relayed; its last
line is the result JSON, checked here against the metric names declared in
BENCHMARK.json. Exits non-zero, without a result line, if the build, the run
or that check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Library telemetry sinks: each adds work to every run and writes files of
# its own. (GEO_THREADS and GEO_FAULTS are neutralised inside the benchmark,
# which stamps their ambient values.)
SCRUBBED_ENV = ("GEO_TRACE", "GEO_METRICS", "GEO_JOURNAL")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "netbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "netbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"netbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace_{args.workload}_{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("netbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"netbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(proc.stdout)
        print(f"netbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, units "
              f"{sorted(k for k in want if k in got and got[k] != want[k])}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
