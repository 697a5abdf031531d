#!/usr/bin/env python3
"""Compare two sets of linkage-benchmark runs: a parent and a change.

    python3 bench/linkage/compare.py PARENT_DIR CHANGE_DIR \
        [--benchmark BENCHMARK.json]

Each directory holds one file per run, named <workload>_<anything>.out,
holding the standard output of run.py: its last line is the JSON result.
Other files are ignored. Runs of one workload are paired in file-name
order, so name them by seed or by run number and use the same names on
both sides. Standard library only.

For every (workload, metric) row it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict:
  improved    the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's inter-quartile range;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (inter-quartile range over median)
              exceeds the bound, and the change does not read better
              in every run than the parent in every run;
  unchanged   otherwise.
Per-layer metrics carry no bound and are never called regressed.

Exits 1 when a row regressed or when the change failed a larger share of
its operations than the parent on some workload; 2 on unusable input.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_runs(directory, workloads):
    """{workload: [result dict, ...]} in file-name order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        matches = [w for w in workloads if path.name.startswith(w + "_")]
        if not matches:
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty run output")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: last line is not a result: {error}")
        runs.setdefault(max(matches, key=len), []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Verdict and pair win share of `change` against `parent`."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)  # > 0: the change is better
    always_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is None:
        if win_share >= 0.9 and gap > (p_q3 - p_q1):
            return "improved", win_share
        return "unchanged", win_share
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        return ("improved" if always_better else "unresolved"), win_share
    if -gap > bound * abs(p_med):
        return "regressed", win_share
    if win_share >= 0.9 and gap > (p_q3 - p_q1):
        return "improved", win_share
    return "unchanged", win_share


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(
        pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        parent = load_runs(args.parent, workloads)
        change = load_runs(args.change, workloads)
    except (OSError, ValueError) as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2

    status = 0
    print(f"{'workload':13} {'metric':36} {'unit':9} "
          f"{'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'won':>5}  verdict")
    for workload in workloads:
        if workload not in parent or workload not in change:
            continue
        p_fail = failed_share(parent[workload])
        c_fail = failed_share(change[workload])
        if c_fail > p_fail:
            print(f"{workload}: the change failed {c_fail:.4%} of operations "
                  f"against the parent's {p_fail:.4%}")
            status = 1
        names = [n for n in metrics
                 if all(n in r["metrics"]
                        for r in parent[workload] + change[workload])]
        for name in names:
            metric = metrics[name]
            p_values = [r["metrics"][name]["value"] for r in parent[workload]]
            c_values = [r["metrics"][name]["value"] for r in change[workload]]
            result, win_share = verdict(p_values, c_values, metric["better"],
                                        metric.get("bound"))
            if result == "regressed":
                status = 1
            sides = []
            for values in (p_values, c_values):
                q1, median, q3 = quartiles(values)
                sides.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:13} {name:36} {metric['unit']:9} "
                  f"{sides[0]:>36} {sides[1]:>36} {win_share:>5.0%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
