#!/usr/bin/env python3
"""texdist host-throughput benchmark: one command, run from the repo root.

    python3 perfbench/run.py --workload pan-p16 --seed 3 --seconds 20 --trace 0

builds perfbench/ (Release, into $CARGO_TARGET_DIR or .bench_build),
runs one workload of texbench, checks its reference digest and exact
counts against perfbench/pins.json, prints the host descriptor and
every metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exit 0 when correct, 1 on a failed check, 2 when the
benchmark cannot be built or run.

Other modes:
    --selftest   unit checks of the median/quantile/efficiency code
    --smoke      every workload at scale 0.125, untraced and traced,
                 against the pinned digests and counts
    --pin        print pins.json for the current simulator (to review
                 and commit by hand when behaviour changes on purpose)
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["pan-p16", "fifo16-p64", "sweep-fig7"]
SEED_VARIANTS = 8
SCALE = "0.5"
SMOKE_SCALE = "0.125"
RUN_TIMEOUT_S = 170


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build texbench; return the build dir."""
    if not (HERE.parent / "src" / "core" / "sequence.hh").is_file():
        fail_setup("texdist sources not found next to perfbench/")
    if not shutil.which("cmake"):
        fail_setup("cmake not found")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bdir = (out / "perfbench").resolve()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail_setup("build failed: " + " ".join(cmd))
    return bdir


def texbench(bdir, workload, seed, seconds, trace, scale, expect=None,
             echo=sys.stdout):
    """Run texbench, echoing its progress lines to @echo; return (its
    JSON report or None, exit code)."""
    cmd = [str(bdir / "texbench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--scale=" + scale,
           "--out-dir=" + str(bdir / "out")]
    if trace:
        cmd.append("--trace")
    if expect:
        cmd.append("--expect=" + expect)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None, 1
    lines = r.stdout.splitlines()
    echo.write("".join(l + "\n" for l in lines[:-1]))
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    return report, r.returncode


def load_pins():
    path = HERE / "pins.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def pin_for(pins, scale, workload, seed):
    return pins.get(scale, {}).get(workload, {}).get(
        str(seed % SEED_VARIANTS))


def listed_metrics(trace):
    """Metric names BENCHMARK.json asks for in this mode, or None."""
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def metrics_of(report, trace):
    """The report's metrics; a traced run adds its exact counts."""
    metrics = dict(report["metrics"])
    if trace:
        metrics.update({k: {"value": v, "unit": "count"}
                        for k, v in report["counts"].items()})
    return metrics


def check(report, pin, trace):
    """Pin and metric-list checks; returns (failed ops, problems)."""
    failed, problems = 0, list(report["problems"])
    if pin is None:
        problems.append("no pinned digest for this scale and seed")
        failed += 1
    elif report["counts"] != pin["counts"]:
        diff = sorted(k for k in set(report["counts"]) | set(pin["counts"])
                      if report["counts"].get(k) != pin["counts"].get(k))
        problems.append("counts differ from the pin: " + ", ".join(diff))
        failed += 1
    wanted = listed_metrics(trace)
    if wanted is not None:
        have = metrics_of(report, trace)
        missing = [m for m in wanted if m not in have]
        if missing:
            problems.append("metrics missing: " + ", ".join(missing))
            failed += 1
    return failed, problems


def measure(args):
    bdir = build()
    pins = load_pins()
    pin = pin_for(pins, SCALE, args.workload, args.seed)
    report, code = texbench(bdir, args.workload, args.seed, args.seconds,
                            args.trace, SCALE,
                            expect=pin["digest"] if pin else None)
    if report is None:
        fail_setup("texbench exited %d without a report" % code)
    if report["host"]["build_type"] != "Release":
        fail_setup("refusing to record from a non-Release build")
    extra_failed, problems = check(report, pin, args.trace)
    failed = report["failed"] + extra_failed
    wanted = listed_metrics(args.trace)
    metrics = {k: v for k, v in metrics_of(report, args.trace).items()
               if wanted is None or k in wanted}
    print("host: " + json.dumps(report["host"], sort_keys=True))
    for name, m in metrics.items():
        print("%-40s %.10g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        print("problem: " + p)
    correct = failed == 0 and not problems and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    bdir = build()
    return subprocess.run([str(bdir / "stats_test")]).returncode


def smoke():
    """Every workload at a tiny scale, untraced then traced."""
    bdir = build()
    pins = load_pins()
    bad = 0
    for w in WORKLOADS:
        for trace in (False, True):
            pin = pin_for(pins, SMOKE_SCALE, w, 0)
            report, code = texbench(bdir, w, 0, 0.5, trace, SMOKE_SCALE,
                                    expect=pin["digest"] if pin else None)
            if report is None:
                failed, problems = 1, ["no report (exit %d)" % code]
            else:
                failed, problems = check(report, pin, trace)
                failed += report["failed"]
            ok = failed == 0 and code == 0 and not problems
            bad += not ok
            print("smoke %-11s trace=%d %s %s" % (
                w, trace, "ok" if ok else "FAILED", "; ".join(problems)))
    return 1 if bad else 0


def pin():
    """Print the reference digest and counts of every workload."""
    bdir = build()
    pins = {}
    for scale in (SCALE, SMOKE_SCALE):
        for w in WORKLOADS:
            for v in range(SEED_VARIANTS):
                report, code = texbench(bdir, w, v, 0.001, False, scale,
                                        echo=sys.stderr)
                if report is None or code != 0:
                    fail_setup("pinning %s variant %d failed" % (w, v))
                pins.setdefault(scale, {}).setdefault(w, {})[str(v)] = {
                    "digest": report["reference_digest"],
                    "counts": report["counts"]}
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.smoke:
        return smoke()
    if args.pin:
        return pin()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
