#!/usr/bin/env python3
"""Diff two trees of BENCH_*.json artifacts under per-metric tolerances.

Mirrors the in-tree C++ core (src/telemetry/bench_diff.cpp) so CI can gate
bench output against committed baselines without a built tree:

    python3 scripts/bench_diff.py bench/baselines bench_out [-v]

Exit codes: 0 no regressions, 1 regression(s) found, 2 usage/IO error.

Rules are ('glob', rel_tol, abs_tol, direction, ignore) matched first-wins
against the flattened metric path (e.g. "metrics.counters.machine.
total_cycles", "attr.layers.0.generation_cycles"). direction +1 flags
increases (cycles, energy, area), -1 flags decreases (accuracy, throughput,
ledger_ok), 0 flags any drift. Wall-clock measurements (histogram timings,
google-benchmark rows, *_ns) are ignored; everything else in a bench JSON
is a deterministic function of the model and seeds, so the default gate is
tight. Booleans flatten to 1/0; strings are skipped. Keep these rules in
sync with default_diff_rules() in src/telemetry/bench_diff.cpp.
"""

import fnmatch
import json
import pathlib
import sys

RULES = [
    ("metrics.histograms.*", 0.0, 0.0, 0, True),  # span timings (seconds)
    ("benchmarks.*", 0.0, 0.0, 0, True),          # raw google-benchmark rows
    ("*build_ns*", 0.0, 0.0, 0, True),
    ("*_wall_s*", 0.0, 0.0, 0, True),
    ("*per_s*", 0.0, 0.0, 0, True),               # measured, not simulated
    ("*_us", 0.0, 0.0, 0, True),                  # wall-clock latency (serve)
    # Run-shape diagnostics: trainer metrics only appear when the trained-
    # model cache misses, and stream-table hit/generation/fill counts depend
    # on that cache plus the pool width (GEO_THREADS). The cycle ledger and
    # attr.* gauges stay gated — deterministic at every thread count.
    ("metrics.counters.train.*", 0.0, 0.0, 0, True),
    ("metrics.gauges.train.*", 0.0, 0.0, 0, True),
    ("metrics.counters.*stream_table_*", 0.0, 0.0, 0, True),
    ("metrics.counters.*_streams_generated", 0.0, 0.0, 0, True),
    ("metrics.counters.*_buffer_fills", 0.0, 0.0, 0, True),
    ("*ledger_ok*", 0.0, 0.0, -1, False),
    # Measured speedup ratios (table-vs-tick, SIMD-vs-scalar): wall-clock-
    # derived, so noisy run to run, but a collapse means an optimization
    # silently stopped engaging. Gate loosely, higher is better.
    # Batched-serving throughput ratio (bench/serve batch section): a
    # collapse below baseline means coalesced dispatch stopped amortizing
    # preparation. Same loose shrink-only gate as the other ratios.
    ("*batch_speedup*", 0.5, 0.0, -1, False),
    ("*speedup*", 0.5, 0.0, -1, False),
    ("*accuracy*", 0.0, 0.25, -1, False),         # percentage points
    ("*frames_per_joule*", 0.02, 0.0, -1, False),
    ("*frames_per_second*", 0.02, 0.0, -1, False),
    ("*fps*", 0.02, 0.0, -1, False),
    ("*throughput*", 0.02, 0.0, -1, False),
    ("*cycles*", 0.02, 0.0, 1, False),
    ("*energy*", 0.02, 0.0, 1, False),
    ("*joule*", 0.02, 0.0, 1, False),
    ("*area*", 0.02, 0.0, 1, False),
    ("*power*", 0.02, 0.0, 1, False),
    ("*seconds*", 0.02, 0.0, 1, False),           # simulated latency
    ("*", 0.02, 1e-12, 0, False),
]


def flatten(node, prefix=""):
    """Yield (path, value) for every numeric leaf; bools become 1/0."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from flatten(value, f"{prefix}.{i}" if prefix else str(i))
    elif isinstance(node, bool):
        yield prefix, 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        yield prefix, float(node)


def match_rule(path):
    for pattern, rel, absolute, direction, ignore in RULES:
        if fnmatch.fnmatchcase(path, pattern):
            return rel, absolute, direction, ignore
    return 0.0, 0.0, 0, False


def diff_documents(base, current, verbose):
    base_flat = dict(flatten(base))
    cur_flat = dict(flatten(current))
    regressions = improvements = compared = ignored = 0
    lines = []
    for path, base_value in base_flat.items():
        rel, absolute, direction, ignore = match_rule(path)
        if ignore:
            ignored += 1
            continue
        if path not in cur_flat:
            regressions += 1
            lines.append(f"REGRESSION  {path:<60} {base_value:g} -> (missing)")
            continue
        cur_value = cur_flat[path]
        compared += 1
        tol = max(absolute, rel * abs(base_value))
        delta = cur_value - base_value
        if abs(delta) <= tol:
            if verbose:
                lines.append(f"ok          {path:<60} {base_value:g} -> {cur_value:g}")
            continue
        worse = direction == 0 or (direction > 0) == (delta > 0)
        if worse:
            regressions += 1
            lines.append(f"REGRESSION  {path:<60} {base_value:g} -> {cur_value:g}")
        else:
            improvements += 1
            lines.append(f"improvement {path:<60} {base_value:g} -> {cur_value:g}")
    for path in cur_flat:
        if path not in base_flat and verbose:
            lines.append(f"added       {path:<60} {cur_flat[path]:g}")
    lines.append(
        f"{compared} compared, {regressions} regression(s), "
        f"{improvements} improvement(s), {ignored} ignored"
    )
    return regressions, lines


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("-")]
    verbose = any(a in ("-v", "--verbose") for a in argv[1:])
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bench_diff.py BASE_DIR CURRENT_DIR [-v]", file=sys.stderr)
        return 2
    base_dir, cur_dir = pathlib.Path(args[0]), pathlib.Path(args[1])
    if not base_dir.is_dir() or not cur_dir.is_dir():
        print(f"bench_diff: {base_dir} and {cur_dir} must be directories",
              file=sys.stderr)
        return 2

    base_files = sorted(base_dir.glob("BENCH_*.json"))
    if not base_files:
        print(f"bench_diff: no BENCH_*.json under {base_dir}", file=sys.stderr)
        return 2

    total_regressions = 0
    for base_file in base_files:
        cur_file = cur_dir / base_file.name
        print(f"-- {base_file} vs {cur_file}")
        if not cur_file.exists():
            print("REGRESSION  missing from current tree")
            total_regressions += 1
            continue
        try:
            base = json.loads(base_file.read_text())
            current = json.loads(cur_file.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"REGRESSION  unparseable document: {err}")
            total_regressions += 1
            continue
        regressions, lines = diff_documents(base, current, verbose)
        print("\n".join(lines))
        total_regressions += regressions

    extras = {p.name for p in cur_dir.glob("BENCH_*.json")} - {
        p.name for p in base_files
    }
    for name in sorted(extras):
        print(f"-- {name}: only in current tree (no baseline; not gated)")

    print(f"== {len(base_files)} file(s): {total_regressions} regression(s)")
    return 0 if total_regressions == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
