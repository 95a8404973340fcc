#!/usr/bin/env python3
"""Compares two google-benchmark JSON reports (BENCH_micro.json).

Prints a per-benchmark table of baseline vs candidate times and flags
regressions beyond a threshold. Both reports should come from the same
host, e.g. bench/run_micro_bench.sh on a base checkout and on a change:

    tools/bench_diff.py BENCH_micro.base.json BENCH_micro.json
    tools/bench_diff.py --threshold 0.15 old.json new.json

Exit status: 0 when no benchmark regressed more than the threshold,
1 on regression, 2 on malformed input. Aggregate entries (mean/median/
stddev rows emitted with --benchmark_repetitions) are skipped; only raw
iterations are compared. Benchmarks present in only one report are
listed but never fail the check (they are new or retired, not slower).
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Returns {name: (real_time, time_unit)} for raw benchmark entries."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregates
        name = entry.get("name")
        time = entry.get("real_time")
        if name is None or time is None:
            continue
        out[name] = (float(time), entry.get("time_unit", "ns"))
    if not out:
        print(f"error: no benchmark entries in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def build_context(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f).get("context", {})
    except (OSError, json.JSONDecodeError):
        return {}


def main():
    parser = argparse.ArgumentParser(
        description="diff two google-benchmark JSON reports")
    parser.add_argument("baseline", help="baseline report (old)")
    parser.add_argument("candidate", help="candidate report (new)")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative slowdown that counts as a regression "
             "(default 0.10 = 10%%)")
    args = parser.parse_args()

    base = load_benchmarks(args.baseline)
    cand = load_benchmarks(args.candidate)

    for path in (args.baseline, args.candidate):
        build = build_context(path).get("mivid_build")
        if build is not None and build != "optimized":
            print(f"warning: {path} was recorded from an unoptimized "
                  "binary; the comparison is not meaningful",
                  file=sys.stderr)

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    width = max((len(n) for n in shared), default=20)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'delta':>8}")
    regressions = []
    for name in shared:
        old, old_unit = base[name]
        new, new_unit = cand[name]
        if old_unit != new_unit:
            print(f"error: {name}: time_unit changed "
                  f"({old_unit} -> {new_unit})", file=sys.stderr)
            sys.exit(2)
        ratio = (new - old) / old if old > 0 else 0.0
        flag = ""
        if ratio > args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, ratio))
        elif ratio < -args.threshold:
            flag = "  improved"
        print(f"{name:<{width}}  {old:>10.1f}{old_unit:>2}  "
              f"{new:>10.1f}{new_unit:>2}  {ratio:>+7.1%}{flag}")

    for name in only_base:
        print(f"{name:<{width}}  (removed)")
    for name in only_cand:
        print(f"{name:<{width}}  (new)")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:+.1%}", file=sys.stderr)
        sys.exit(1)
    print(f"\nno regression beyond {args.threshold:.0%} "
          f"({len(shared)} compared)")


if __name__ == "__main__":
    main()
