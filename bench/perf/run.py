#!/usr/bin/env python3
"""Builds chronobench and runs it.

Run from the root of a checkout:

  python3 bench/perf/run.py             # all four workloads: 3 plain passes + traced pass
  python3 bench/perf/run.py --smoke     # 1 s windows, 1 pass, all four workloads (<30 s)
  python3 bench/perf/run.py --workload fastlane --seed 7 --seconds 25 --trace 0

The first two forms print every metric of every workload by name with its unit, merge
the driver's per-workload JSON into one file (default build-perf/chronobench.json) and
exit non-zero if a cell failed, a trace dropped events, a metric named in BENCHMARK.json
is missing, or a design check fails. The third form measures one workload for about
--seconds host seconds and prints, as its last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"} holding the BENCHMARK.json end_to_end
metrics (--trace 0) or per_layer metrics (--trace 1).

The driver is built in build-perf/, a Release tree of the repo's own CMake project with
bench/perf/perf.cmake injected (see that file). Nothing outside build-perf/ is written.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-perf"
DRIVER = BUILD / "chronobench"
WORKLOADS = ["fastlane", "hotset-shift", "tenants-fabric", "fig06-sweep"]
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: {ROOT} holds no chronotier sources to build the benchmark from")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", "-DCHRONOTIER_WERROR=OFF",
                      f"-DCMAKE_PROJECT_chronotier_INCLUDE={ROOT / 'bench/perf/perf.cmake'}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "chronobench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: building chronobench failed")
            sys.exit(2)


def run_driver(args, out_path):
    """Runs the driver; returns its parsed JSON, or None if it crashed or timed out."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if out_path.exists():
        out_path.unlink()
    cmd = [str(DRIVER)] + args + ["--out", str(out_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {' '.join(cmd)} timed out after {DRIVER_TIMEOUT_S} s")
        return None
    log(proc.stdout.rstrip())
    # Exit 3 = the driver finished but some cell failed its checks (reported in the JSON).
    if proc.returncode not in (0, 3) or not out_path.is_file():
        log(f"run.py: driver exited with {proc.returncode}")
        return None
    return json.loads(out_path.read_text())


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def missing_metrics(result, spec):
    """Names from BENCHMARK.json that a full (traced) driver result lacks."""
    names = [m["name"] for m in spec["end_to_end"]]
    have = dict(result["metrics"])
    if result["traced_pass"]:
        names += [m["name"] for m in spec["per_layer"]]
        have.update(result["layers"])
    return [n for n in names if n not in have or not math.isfinite(have[n]["value"])]


def layer(results, workload, name):
    return results[workload]["layers"][name]["value"]


def design_checks(results):
    """The per-layer shape the workloads were chosen for (bench/perf/README.md)."""
    checks = []
    if "tenants-fabric" in results and "fastlane" in results:
        checks.append(("workloads.share: tenants-fabric > fastlane",
                       layer(results, "tenants-fabric", "workloads.share") >
                       layer(results, "fastlane", "workloads.share")))
    if "hotset-shift" in results and "fastlane" in results:
        for name in ("migration.committed", "policies.hook_calls"):
            checks.append((f"{name}: hotset-shift > fastlane",
                           layer(results, "hotset-shift", name) >
                           layer(results, "fastlane", name)))
    for workload, result in results.items():
        has = "harness.runner_utilization" in result["layers"]
        checks.append((f"harness.runner_utilization reported on {workload}: {has}",
                       has == (workload == "fig06-sweep")))
    return checks


def print_metrics(title, metrics):
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")


def run_all(options):
    """All four workloads, each in its own driver process; merged JSON + checks."""
    spec = benchmark_spec()
    driver_args = ["--seed", str(options.seed)]
    driver_args += ["--smoke"] if options.smoke else ["--reps", str(options.reps)]
    results = {}
    problems = []
    for workload in WORKLOADS:
        result = run_driver(["--workload", workload] + driver_args,
                            BUILD / "results" / f"{workload}.json")
        if result is None:
            problems.append(f"{workload}: driver crashed or timed out")
            continue
        results[workload] = result
        print(f"== {workload} (seed {options.seed}, {result['plain_passes']} plain passes, "
              f"jobs {result['jobs']})")
        print_metrics("end-to-end:", result["metrics"])
        print_metrics("per-layer:", result["layers"])
        if result["failed_cells"] != 0:
            problems.append(f"{workload}: {result['failed_cells']} cells failed")
        if result["layers"]["trace.dropped"]["value"] != 0:
            problems.append(f"{workload}: the trace ring dropped events")
        for name in missing_metrics(result, spec):
            problems.append(f"{workload}: metric {name} missing")
    print("design checks:")
    for text, ok in design_checks(results):
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
        if not ok and not options.smoke:
            problems.append(f"design check failed: {text}")
    out = Path(options.out) if options.out else BUILD / "chronobench.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": options.seed, "smoke": options.smoke,
                               "workloads": results}, indent=2) + "\n")
    print(f"wrote {out}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def run_one(options):
    """One measured run for an outside harness; the last stdout line is the result."""
    spec = benchmark_spec()
    traced = options.trace == 1
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    # Plain passes fill the time budget; with --trace 1 one of them is enough, since the
    # traced pass supplies the per-layer numbers.
    args = ["--workload", options.workload, "--seed", str(options.seed),
            "--seconds", str(options.seconds), "--reps", "1" if traced else "2"]
    if not traced:
        args.append("--no-trace-pass")
    result = run_driver(args, BUILD / "results" /
                        f"{options.workload}-seed{options.seed}-trace{options.trace}.json")
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    available = dict(result["metrics"])
    available.update(result["layers"])
    metrics = {n: available[n] for n in names if n in available}
    correct = (result["failed"] == 0 and len(metrics) == len(names) and
               all(math.isfinite(m["value"]) for m in metrics.values()))
    if traced:
        correct = correct and result["layers"]["trace.dropped"]["value"] == 0
    else:
        correct = correct and all(m["value"] > 0 for m in metrics.values())
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.9g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload and print one result line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25,
                        help="host-time budget of one --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--reps", type=int, default=3,
                        help="plain passes per workload when running all four")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s windows and 1 pass per workload, all four workloads")
    parser.add_argument("--out", help="merged JSON path (default build-perf/chronobench.json)")
    options = parser.parse_args()
    start = time.monotonic()
    build()
    log(f"run.py: build step took {time.monotonic() - start:.1f} s")
    return run_one(options) if options.workload else run_all(options)


if __name__ == "__main__":
    sys.exit(main())
