#!/usr/bin/env python3
"""Finesse benchmark: build, run one workload, check it, report it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload bn_family --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the library under src/) into .bench_build/,
runs the workload, checks its outputs, prints every metric by name and
unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics (from a run that records spans; the span file is
written next to the result record in .bench_build/results/).

Steadiness mode runs one workload N times on consecutive seeds and
prints each end-to-end metric's median, quartiles and spread against
its bound, then one traced run whose end-to-end numbers sit next to
the untraced medians (the difference is the tracing overhead):

  python3 perfbench/run.py --workload bls_family --steady 10 --seed 1

Deterministic counts (instruction counts, cycles, area, the frontier
fingerprint, Miller loops per request) are stored per workload in
.bench_build/det/ and compared exactly with every later run; a change
is flagged in the output.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BIN_DIR, "finesse_perf")
BUILD_LIMIT_S = 700  # configure + build of a fresh checkout
RUN_LIMIT_S = 170  # one workload process, after the build
# End-to-end metrics printed and recorded on every run but given no bound
# in BENCHMARK.json: open-loop p99 is decided by the host's own stalls on
# a shared VM and spreads past any allowed bound (see README.md).
UNGATED = {"latency_p99_ms": "ms"}


def log(msg):
    print(msg, flush=True)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (a build's compilers too) and wait for it. Returns the exit code, or
    None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BIN_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BIN_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BIN_DIR, "-j", jobs])
    deadline = time.time() + BUILD_LIMIT_S
    with open(logfile, "a") as out:
        for cmd in steps:
            rc = run_group(cmd, max(1, deadline - time.time()), stdout=out,
                           stderr=subprocess.STDOUT)
            if rc != 0:
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                shutil.rmtree(BIN_DIR, ignore_errors=True)
                return False
    return os.path.exists(BINARY)


def git_commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    # Only ask git inside the checkout itself, never a repository above it.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, commit):
    """One workload process; returns (record or None, exit code)."""
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    # The run must not pick up an artifact cache or chaos plan.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FINESSE_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out, "--commit", commit]
    rc = run_group(cmd, RUN_LIMIT_S, env=env)
    if rc is None:
        sys.stderr.write(f"{workload}: timed out after {RUN_LIMIT_S} s\n")
        return None, 1
    if not os.path.exists(out):
        return None, rc or 1
    with open(out) as f:
        return json.load(f), rc


def seed_dependent(key):
    return key.startswith("serve.")


def check_determinism(record):
    """Compare deterministic counts with the stored ones; list changes."""
    det_dir = os.path.join(BUILD, "det")
    os.makedirs(det_dir, exist_ok=True)
    changes = []
    for scope, keys in (("", [k for k in record["det"]
                              if not seed_dependent(k)]),
                        (f"-seed{record['seed']}",
                         [k for k in record["det"] if seed_dependent(k)])):
        path = os.path.join(det_dir, record["workload"] + scope + ".json")
        now = {k: record["det"][k] for k in keys}
        if os.path.exists(path):
            with open(path) as f:
                before = json.load(f)
            for k in sorted(set(before) | set(now)):
                if before.get(k) != now.get(k):
                    changes.append(f"{k}: {before.get(k)} -> {now.get(k)}")
        with open(path, "w") as f:
            json.dump(now, f, indent=1, sort_keys=True)
    return changes


def fmt(v):
    return f"{v:.6g}"


def report(record, spec, trace):
    """Print the run; return (correct, metrics for the last line)."""
    env = record["env"]
    log(f"env: nproc={env['nproc']} adx={env['adx']} "
        f"build={env['build_type']} commit={env['git_commit']} "
        f"seed={env['seed']} workload={record['workload']}")
    attempted, failed = record["attempted"], record["failed"]
    log(f"fail_frac: {failed / max(attempted, 1):.6g} "
        f"({failed} of {attempted} operations)")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = record["layer"] if trace else record["e2e"]
    metrics, correct = {}, bool(record["correct"])
    log("end-to-end:" if not trace else "per-layer:")
    for m in wanted:
        v = source.get(m["name"])
        if v is None or not math.isfinite(v):
            log(f"  {m['name']}: MISSING")
            correct = False
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        log(f"  {m['name']:<32} {fmt(v):>14} {m['unit']}")
    if not trace:
        for name, unit in UNGATED.items():
            log(f"  {name:<32} {fmt(record['e2e'][name]):>14} {unit}"
                "  (not gated)")
    for k, v in sorted(record["det"].items()):
        log(f"  det {k} = {v}")
    changes = check_determinism(record)
    if changes:
        log("DETERMINISTIC COUNTS CHANGED since the last run:")
        for c in changes:
            log("  " + c)
    else:
        log("deterministic counts: identical to the stored record")
    for e in record["errors"]:
        log("ERROR: " + e)
    return correct, metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args, spec, commit):
    """N untraced runs on consecutive seeds, then one traced run."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({name: None for name in UNGATED})
    values = {name: [] for name in bounds}
    ok = True
    for i in range(args.steady):
        seed = args.seed + i
        t0 = time.time()
        record, rc = run_workload(args.workload, seed, args.seconds, 0, commit)
        if record is None or rc != 0 or not record["correct"]:
            log(f"seed {seed}: run failed (exit {rc})")
            return 1
        changes = check_determinism(record)
        log(f"seed {seed}: {time.time() - t0:.1f} s "
            + " ".join(f"{k}={fmt(record['e2e'][k])}" for k in values)
            + ("; DETERMINISTIC COUNTS CHANGED: " + "; ".join(changes)
               if changes else ""))
        for name in values:
            values[name].append(record["e2e"][name])
    traced, rc = run_workload(args.workload, args.seed, args.seconds, 1,
                              commit)
    log(f"\n{args.workload}: {args.steady} runs, seeds {args.seed}.."
        f"{args.seed + args.steady - 1}, {args.seconds} s each")
    log(f"{'metric':<24}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>8}"
        f"{'bound':>7}{'traced':>12}{'ovh':>8}")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        if bound is None:
            status, bound = "  (not gated)", float("nan")
        elif spread <= bound / 3:
            status = ""
        elif spread <= bound:
            status = "  (above a third of the bound)"
        else:
            status = "  OVER BOUND"
        ok = ok and status != "  OVER BOUND"
        tv = traced["e2e"][name] if traced else float("nan")
        ovh = (tv - med) / med if med else float("nan")
        log(f"{name:<24}{fmt(q1):>12}{fmt(med):>12}{fmt(q3):>12}"
            f"{spread:>8.3f}{bound:>7.2f}{fmt(tv):>12}{ovh:>+8.3f}{status}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="steadiness mode: run N seeds, print quartiles")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"unknown workload {args.workload}\n")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not build():
        sys.stderr.write("build failed; see .bench_build/build.log\n")
        return 1
    commit = git_commit()
    if args.steady:
        return steady(args, spec, commit)

    record, rc = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, commit)
    if record is None:
        sys.stderr.write(f"workload process failed (exit {rc})\n")
        return 1
    correct, metrics = report(record, spec, args.trace)
    correct = correct and rc == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
