#!/usr/bin/env bash
# Build, test, and run every bench named in bench/CMakeLists.txt: the paper
# figures and tables plus the ablation, variability, sense-margin,
# granularity and assembly studies.  Outputs land in test_output.txt and
# bench_output.txt.  Exits with ctest's status, after the benches have run.
set -uo pipefail
cd "$(dirname "$0")/.."

# No -G: an existing build/ keeps the generator it was configured with
# (the tier-1 command configures it with CMake's default).
cmake -B build -S . || exit 1
cmake --build build -j"$(nproc)" || exit 1

ctest --test-dir build -j"$(nproc)" 2>&1 | tee test_output.txt
test_status=${PIPESTATUS[0]}

# Run only the benches bench/CMakeLists.txt declares: build/bench/ may still
# hold binaries of benches that have since been deleted from the source.
{
  for name in $(sed -n 's/^fefet_add_bench(\(bench_[a-z0-9_]*\))$/\1/p' \
                  bench/CMakeLists.txt); do
    b="build/bench/$name"
    echo "##### $b"
    "$b"
    echo
  done
} 2>&1 | tee bench_output.txt

exit "$test_status"
