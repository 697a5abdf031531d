#!/usr/bin/env bash
# Runs clang-tidy over the library sources (src/**/*.cc) and the
# test-only join oracle (tests/support/**/*.cc) using the compile
# database of an existing build tree. Shared by local use and
# the clang-tidy CI job so both produce identical diagnostics; the
# checked-in .clang-tidy sets WarningsAsErrors to '*', so any finding
# makes this script exit non-zero.
#
# Usage: tools/run_clang_tidy.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "error: ${BUILD_DIR}/compile_commands.json not found." >&2
  echo "Configure first: cmake -B ${BUILD_DIR} -S .  (the project exports" >&2
  echo "compile commands by default)." >&2
  exit 2
fi

# Prefer the unversioned wrappers; fall back to versioned installs.
RUNNER=""
for cand in run-clang-tidy run-clang-tidy-19 run-clang-tidy-18 run-clang-tidy-17; do
  if command -v "${cand}" >/dev/null 2>&1; then
    RUNNER="${cand}"
    break
  fi
done
if [[ -z "${RUNNER}" ]]; then
  echo "error: run-clang-tidy not found (install clang-tidy)." >&2
  exit 2
fi

# run-clang-tidy treats positional arguments as regexes over the paths
# in the compile database: restrict to the library sources and the
# oracle the tests link (the tests themselves and the benches lean on
# GoogleTest/Benchmark macros that do not survive the strict check set).
exec "${RUNNER}" -p "${BUILD_DIR}" -quiet '/(src|tests/support)/.*\.cc$'
