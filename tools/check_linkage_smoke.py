#!/usr/bin/env python3
"""Gate the deterministic counters of `bench_linkage --smoke` exactly.

    .bench_build/bench_linkage --smoke > smoke.txt
    python3 tools/check_linkage_smoke.py smoke.txt

The smoke run prints one JSON line per workload, in the order
paper_matrix, feed_csv, serve_open. Timings drift from run to run, but
the counters named in tools/linkage_smoke_expected.json are fixed by the
seed: completeness, transitions, catch-up tuples, approximate-step share
and the approximate-probe work counters. Any difference from the
expected value fails the check. A change that moves one on purpose
re-records the file with --record and says why.

    python3 tools/check_linkage_smoke.py --record smoke.txt
"""

import argparse
import json
import pathlib
import sys

EXPECTED = pathlib.Path(__file__).resolve().parent / "linkage_smoke_expected.json"
WORKLOADS = ["paper_matrix", "feed_csv", "serve_open"]
# Keys at the top level of each JSON line.
TOP_LEVEL = ["correct", "failed"]
# Metric values, read from the line's "metrics" object.
METRICS = [
    "completeness",
    "adaptive.transitions",
    "adaptive.catchup_tuples",
    "adaptive.approx_step_share",
    "shard.catchup_tuples",
    "join.postings_scanned",
    "join.candidates",
    "join.verified",
    "join.matches",
]


def parse_smoke(text):
    """Returns {workload: {counter: value}} from the smoke stdout."""
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if len(lines) != len(WORKLOADS):
        raise ValueError(f"expected {len(WORKLOADS)} JSON lines, "
                         f"found {len(lines)}")
    observed = {}
    for workload, line in zip(WORKLOADS, lines):
        record = json.loads(line)
        counters = {key: record[key] for key in TOP_LEVEL}
        for key in METRICS:
            counters[key] = record["metrics"][key]["value"]
        observed[workload] = counters
    return observed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("smoke_output",
                        help="stdout of bench_linkage --smoke ('-' = stdin)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the expected file from this output")
    args = parser.parse_args()
    if args.smoke_output == "-":
        text = sys.stdin.read()
    else:
        text = pathlib.Path(args.smoke_output).read_text()
    observed = parse_smoke(text)

    if args.record:
        EXPECTED.write_text(json.dumps(observed, indent=2) + "\n")
        print(f"recorded {EXPECTED}")
        return 0

    expected = json.loads(EXPECTED.read_text())
    drift = []
    for workload in WORKLOADS:
        for key in TOP_LEVEL + METRICS:
            want = expected[workload][key]
            got = observed[workload][key]
            if got != want:
                drift.append(f"{workload} {key}: expected {want!r}, got {got!r}")
    for line in drift:
        print("DRIFT " + line)
    if drift:
        print(f"{len(drift)} smoke counter(s) drifted from {EXPECTED.name}")
        return 1
    print(f"all {len(WORKLOADS) * len(TOP_LEVEL + METRICS)} smoke counters "
          f"match {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
