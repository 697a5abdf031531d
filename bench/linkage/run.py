#!/usr/bin/env python3
"""Build the linkage benchmark from source and run one workload.

    python3 bench/linkage/run.py --workload paper_matrix --seed 7 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
bench_linkage (CMake, Release) into .bench_build/; later runs only
rebuild what changed. The benchmark's table goes to stderr, and the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is the benchmark's: non-zero when the
build fails, a check fails, or the run overstays its time limit.
"""

import argparse
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_linkage"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds bench_linkage; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no engine sources under {ROOT}; nothing to build",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_linkage",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_matrix", "feed_csv", "serve_open"])
    parser.add_argument("--seed", type=int, default=20090324)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default="",
                        help="traced run: Chrome trace-event JSON file")
    args = parser.parse_args()
    if not build():
        return 2
    command = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        command.append("--trace")
    if args.trace_out:
        command.append(f"--trace-out={args.trace_out}")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
