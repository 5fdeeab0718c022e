#!/usr/bin/env python3
"""Compares chronobench results of two versions of the simulator.

  compare.py --base A1.json A2.json ... --new B1.json B2.json ...
  compare.py --pairs 10 --base-bin OLD/chronobench --new-bin NEW/chronobench \
             [--workload W ...] [--seed S] [--reps R] [--traced] [--dir DIR]

Each input file is one run: either run.py's merged output ({"workloads": {...}}) or one
driver result ({"workload": ..., "metrics": ..., "layers": ...}). File i of --base is
paired with file i of --new. --pairs runs the two driver binaries alternately (the side
that goes first alternates), N runs each, with identical settings, then compares.

For every workload and metric it prints each side's median and quartiles, the pairs the
new side won, and a verdict:
  improved    the new side wins at least 9 of 10 pairs (ties count for neither) and the
              medians differ, in the better direction, by more than the base's own
              quartile spread;
  worse       end-to-end metrics: the new median is worse than the base median by more
              than the bound in BENCHMARK.json; per-layer metrics (no bound): the mirror
              of the improved rule;
  unresolved  the base's quartile spread exceeds the bound (or, without a bound, the
              medians differ by more than the spread without a 9-in-10 pair majority),
              unless every new run reads better than every base run;
  unchanged   otherwise.
Exits 1 if any end-to-end metric is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ["fastlane", "hotset-shift", "tenants-fabric", "fig06-sweep"]


def load_runs(paths):
    """[{workload: {metric: (value, unit)}}], one entry per file."""
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        results = data["workloads"] if "workloads" in data else {data["workload"]: data}
        run = {}
        for workload, result in results.items():
            metrics = dict(result["metrics"])
            metrics.update(result.get("layers", {}))
            run[workload] = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
        runs.append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    base_median = statistics.median(base)
    gain = sign * (statistics.median(new) - base_median)  # > 0: the new side is better.
    q1, q3 = quartiles(base)
    spread = q3 - q1
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins
    if all_better:
        return "unchanged", wins
    if bound is not None:
        scale = abs(base_median) or 1.0
        if spread / scale > bound:
            return "unresolved", wins
        return ("worse" if -gain / scale > bound else "unchanged"), wins
    if losses >= 0.9 * len(pairs) and -gain > spread:
        return "worse", wins
    return ("unchanged" if abs(gain) <= spread else "unresolved"), wins


def compare(base_runs, new_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    n = min(len(base_runs), len(new_runs))
    base_runs, new_runs = base_runs[:n], new_runs[:n]
    regressions = 0
    workloads = [w for w in WORKLOADS if all(w in r for r in base_runs + new_runs)]
    for workload in workloads:
        print(f"== {workload}: {n} pairs")
        print(f"  {'metric':<40} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}"
              f" {'won':>6}  verdict")
        names = [m for m in base_runs[0][workload] if all(m in r[workload] for r in new_runs)]
        for name in names:
            meta = end_to_end.get(name) or per_layer.get(name)
            base = [r[workload][name][0] for r in base_runs]
            new = [r[workload][name][0] for r in new_runs]
            cells = []
            for values in (base, new):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]")
            if meta is None:
                text, won = "-", "-"
            else:
                text, wins = verdict(base, new, meta["better"], meta.get("bound"))
                won = f"{wins}/{n}"
                if name in end_to_end and text == "worse":
                    regressions += 1
            unit = base_runs[0][workload][name][1]
            print(f"  {name + ' (' + unit + ')':<40} {cells[0]:>34} {cells[1]:>34} {won:>6}  "
                  f"{text}")
    return regressions


def run_pairs(options):
    """Runs both binaries alternately; returns (base files, new files)."""
    out = Path(options.dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"base": [], "new": []}
    binaries = {"base": options.base_bin, "new": options.new_bin}
    for i in range(options.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            for workload in options.workload or WORKLOADS:
                path = out / f"{side}-{i}-{workload}.json"
                cmd = [binaries[side], "--workload", workload, "--seed", str(options.seed),
                       "--reps", str(options.reps), "--out", str(path)]
                if not options.traced:
                    cmd.append("--no-trace-pass")
                print(f"pair {i + 1}/{options.pairs}: {side} {workload}", file=sys.stderr,
                      flush=True)
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            files[side].append([out / f"{side}-{i}-{w}.json"
                                for w in options.workload or WORKLOADS])
    return files["base"], files["new"]


def merge(file_groups):
    """One run per group: the union of the per-workload files of one pair slot."""
    runs = []
    for group in file_groups:
        run = {}
        for partial in load_runs(group):
            run.update(partial)
        runs.append(run)
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", help="result files of the parent")
    parser.add_argument("--new", nargs="+", help="result files of the change")
    parser.add_argument("--pairs", type=int, help="run N alternating pairs of the binaries")
    parser.add_argument("--base-bin", help="the parent's chronobench binary")
    parser.add_argument("--new-bin", help="the change's chronobench binary")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="restrict --pairs to this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=3, help="plain passes per run")
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced pass, so per-layer metrics compare too")
    parser.add_argument("--dir", default="build-perf/pairs", help="where --pairs writes")
    options = parser.parse_args()
    if options.pairs:
        if not (options.base_bin and options.new_bin):
            parser.error("--pairs needs --base-bin and --new-bin")
        base_groups, new_groups = run_pairs(options)
        base_runs, new_runs = merge(base_groups), merge(new_groups)
    elif options.base and options.new:
        base_runs, new_runs = load_runs(options.base), load_runs(options.new)
    else:
        parser.error("give --base and --new files, or --pairs with two binaries")
    return 1 if compare(base_runs, new_runs) else 0


if __name__ == "__main__":
    sys.exit(main())
