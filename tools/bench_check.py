#!/usr/bin/env python3
"""Bench-regression gate for the BENCH_*.json trend files.

Compares every numeric field whose name contains "speedup" in the
freshly produced bench JSONs against the committed baselines under
bench/baselines/. The AGGREGATE fields (exact names in GATED_FIELDS:
whole-catalog / whole-sweep ratios, the stable measurements) fail the
job (exit 1) on a drop beyond the allowed fraction (default 20%);
per-curve speedup fields are compared and printed but only warn --
individual curves (especially the smallest, fastest-compiling ones)
swing well over 10% run-to-run on the same machine, so hard-gating
them would make CI flaky without adding signal. Correctness is gated
elsewhere (the benches exit non-zero on identity mismatches); this
script only guards the performance trajectory.

Baselines are refreshed by copying a healthy run's BENCH_*.json over
bench/baselines/ and committing (an intentional perf trade-off lands
together with its new baseline).

Usage:
    python3 tools/bench_check.py \
        --baseline-dir bench/baselines --current-dir build-release \
        [--max-regression 0.20]
"""

import argparse
import glob
import json
import os
import sys

# Aggregate speedup fields that hard-fail the gate; any other field
# containing "speedup" (per-curve rows, raw uncapped ratios) is
# advisory. warm_speedup is fig_search's capped warm-cache ratio; the
# cap keeps its denominator out of the flaky-milliseconds regime, so
# it is stable enough to gate.
GATED_FIELDS = {
    "speedup",
    "largest_speedup",
    "warm_speedup",
}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def comparable(baseline, current):
    """Baselines only bind when produced by the same bench shape.

    The fast/full mode of a bench changes its curve set; comparing
    speedups across modes would be apples to oranges. A shape change
    therefore skips the file (with a loud warning) instead of
    producing a bogus regression verdict.
    """
    for key in ("bench", "curve", "curves", "models", "mode"):
        if key in baseline and key in current and baseline[key] != current[key]:
            return False, key
    return True, None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--current-dir", required=True)
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional drop per speedup field (default 0.20)",
    )
    args = ap.parse_args()

    baseline_files = sorted(
        glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json"))
    )
    if not baseline_files:
        print(f"bench_check: no baselines under {args.baseline_dir}",
              file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for base_path in baseline_files:
        name = os.path.basename(base_path)
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.exists(cur_path):
            failures.append(f"{name}: missing from {args.current_dir} "
                            "(bench did not run or did not write JSON)")
            continue
        baseline = load(base_path)
        current = load(cur_path)

        ok, key = comparable(baseline, current)
        if not ok:
            print(f"WARNING {name}: '{key}' differs between baseline "
                  f"({baseline[key]!r}) and current ({current[key]!r}); "
                  "skipping -- regenerate the baseline for this mode")
            continue

        for field, base_val in baseline.items():
            if "speedup" not in field:
                continue
            if not isinstance(base_val, (int, float)) or base_val <= 0:
                continue
            cur_val = current.get(field)
            if not isinstance(cur_val, (int, float)):
                failures.append(f"{name}: field '{field}' missing from "
                                "current run")
                continue
            compared += 1
            ratio = cur_val / base_val
            verdict = "OK"
            if ratio < 1.0 - args.max_regression:
                if field in GATED_FIELDS:
                    verdict = "REGRESSION"
                    failures.append(
                        f"{name}: {field} regressed {base_val:.3f} -> "
                        f"{cur_val:.3f} ({(1.0 - ratio) * 100:.1f}% "
                        f"drop, allowed "
                        f"{args.max_regression * 100:.0f}%)")
                else:
                    verdict = "WARN"
            print(f"{verdict:10s} {name} {field}: baseline "
                  f"{base_val:.3f}, current {cur_val:.3f} "
                  f"({ratio:.0%} of baseline)")

    if compared == 0 and not failures:
        # A gate that silently compares nothing is worse than no gate.
        print("bench_check: no speedup fields compared", file=sys.stderr)
        return 1
    if failures:
        print("\nbench_check: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nbench_check: {compared} speedup fields compared; all "
          f"gated fields within {args.max_regression * 100:.0f}% of "
          "baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
