#!/usr/bin/env bash
# Sanitizer + resilience + perf + observability gate, eight stages:
#
#  1. ASan + UBSan (FEFET_SANITIZE=address) over the full test suite —
#     memory errors and UB in the netlist/device ownership chain (the
#     suite includes the assembler-vs-oracle stamp parity tests, so the
#     assembly engine runs under ASan).  The build must print no compiler
#     warning for a file under src/, tests/, bench/ or examples/ (the gate
#     reads the warnings of the files this build compiles, so all of them
#     in a fresh build directory); warnings inside system headers, such as
#     GCC 12's -Wrestrict false positives in <bits/char_traits.h>, pass;
#  2. TSan (FEFET_SANITIZE=thread) over the concurrency-sensitive tests
#     (the sweep engine / thread pool, the LU-reuse solver path, the
#     stamp-parity suite, the observability layer and the parallel
#     per-block Schur factorization) — data races in the sim layer.  TSan
#     cannot combine with ASan, hence the separate build directory;
#  3. kill-and-resume smoke: SIGKILL the journaled bench_variability sweep
#     (journals PATH.mc and PATH.yield) mid-run, then --resume it and
#     require the PERF record (results CRC + outcome tally, wall-clock and
#     from_journal fields excluded) to match an uninterrupted run bit for
#     bit;
#  4. observability smoke: a traced bench_variability sweep must emit a
#     metrics-JSON report with nonzero newton/assembler/sweep/transient
#     counters and a Chrome trace with the nested span taxonomy (both
#     validated with python3), and telemetry must stay ~free — on the
#     Fig. 7 8x8 array transients, metrics enabled vs disabled, paired
#     per op and interleaved in thread CPU time, median overhead <= 2%,
#     and <= 10% on a 1x1 array, where the fixed cost per Newton
#     iteration weighs most;
#  5. bench and example determinism: every bench named in
#     bench/CMakeLists.txt runs twice from the Release build and must print
#     the same stdout both times, PERF and REPORT lines (wall-clock
#     timings) excluded — the benches are seeded, so any other difference
#     is a bug.  Every example named in examples/CMakeLists.txt runs twice
#     the same way, netlist_sim once per deck in examples/decks;
#  6. black-box crash gate: the Release bench_variability sweep with
#     FEFET_BLACKBOX set (points padded 400 ms), sent SIGSEGV once its
#     journaled write-yield sweep (the Newton-running one) has recorded a
#     point, must leave a dump that fefet-blackbox parses and
#     pretty-prints, with the solver events and the sweep engine's
#     embedded metrics snapshot intact;
#  7. clang-tidy (performance-* as errors + modernize subset, .clang-tidy)
#     over src/spice and src/common — skipped with a notice when
#     clang-tidy is not installed;
#  8. hierarchical solver gate: bench_fig07_array_bias --parity at 32x32
#     must match the flat oracle within the DESIGN.md §6.7 tolerances
#     (1e-3 of the memory window, 0.5% read current), and --speedup at
#     64x64 must show the BBD/Schur path >= 2x faster than the flat
#     sparse-LU solve on the same transient.  It runs last: the speedup
#     floor has been failing since the flat LU gained its ordering
#     (ROADMAP item 2), and a failure here must not hide stages 5-7.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

ASAN_BUILD_DIR=build-sanitize
TSAN_BUILD_DIR=build-tsan
PERF_BUILD_DIR=build-perf

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== ASan/UBSan: full suite =="
cmake -B "$ASAN_BUILD_DIR" -S . -DFEFET_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_BUILD_DIR" -j"$(nproc)" 2>&1 \
  | tee "$SMOKE_DIR/asan-build.log"
PROJECT_WARNINGS=$(grep -E \
  "^($PWD/)?(src|tests|bench|examples)/[^:]+:[0-9]+(:[0-9]+)?: warning:" \
  "$SMOKE_DIR/asan-build.log" || true)
if [ -n "$PROJECT_WARNINGS" ]; then
  echo "FAIL: the build warns in project sources:" >&2
  echo "$PROJECT_WARNINGS" >&2
  exit 1
fi

# abort_on_error keeps CI logs short; detect_leaks catches missing frees in
# the netlist/device ownership chain.
ASAN_OPTIONS=${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1} \
UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1} \
ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j"$(nproc)" "$@"

echo "== TSan: sweep engine + LU reuse + stamp parity + observability =="
cmake -B "$TSAN_BUILD_DIR" -S . -DFEFET_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD_DIR" -j"$(nproc)" \
  --target test_sim_sweep test_lu_reuse test_variability test_stamp_parity \
  test_obs test_flight_recorder test_schur_solver \
  test_hier_array

# The ^(...)\. anchors keep the test_obs suites from pulling in unbuilt
# binaries with similar names (Trace vs PowerTrace).
TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j"$(nproc)" \
  -R 'ThreadPool|SweepEngine|SparseLuFactorizer|LuReuse|Variability|StampParity|SchurSolver|HierArray|FlightRecorder|^(JsonChecker|Metrics|Trace|RunReport|ObsAlloc)\.' "$@"

echo "== kill-and-resume smoke: journaled sweep survives SIGKILL =="
cmake --build "$ASAN_BUILD_DIR" -j"$(nproc)" --target bench_variability
BENCH="$ASAN_BUILD_DIR/bench/bench_variability"

# PERF record minus the fields legitimately differing between a fresh and
# a resumed run (wall clock, speedup, replay count).
normalize_perf() {
  grep '^PERF ' "$1" \
    | sed -E 's/"(serial_s|parallel_s|speedup)":[0-9.]+,?//g; s/"from_journal":[0-9]+,//'
}

"$BENCH" --journal="$SMOKE_DIR/ref.journal" > "$SMOKE_DIR/ref.out"

# Pad each point so SIGKILL reliably lands mid-sweep, then pull the rug
# once the Monte Carlo journal (the sweep that runs first) holds its header
# plus one complete point record.  Polling, not a fixed sleep: under ASan
# one point takes longer than any fixed delay that keeps this stage short.
"$BENCH" --journal="$SMOKE_DIR/kill.journal" --point-delay-ms=400 \
  > "$SMOKE_DIR/kill.out" 2>&1 &
BENCH_PID=$!
for _ in $(seq 1 600); do
  if [ -f "$SMOKE_DIR/kill.journal.mc" ] &&
     [ "$(wc -l < "$SMOKE_DIR/kill.journal.mc")" -ge 2 ]; then
    break
  fi
  kill -0 "$BENCH_PID" 2>/dev/null || break
  sleep 0.1
done
kill -KILL "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true
if ! [ -s "$SMOKE_DIR/kill.journal.mc" ]; then
  echo "FAIL: SIGKILL'd run left no journal" >&2
  exit 1
fi

"$BENCH" --journal="$SMOKE_DIR/kill.journal" --resume > "$SMOKE_DIR/resume.out"
if ! grep -q '"from_journal":[1-9]' "$SMOKE_DIR/resume.out"; then
  echo "FAIL: resume replayed no journal points" >&2
  cat "$SMOKE_DIR/resume.out"
  exit 1
fi
REF_PERF=$(normalize_perf "$SMOKE_DIR/ref.out")
RESUME_PERF=$(normalize_perf "$SMOKE_DIR/resume.out")
if [ "$REF_PERF" != "$RESUME_PERF" ]; then
  echo "FAIL: resumed run is not bit-identical to the uninterrupted run" >&2
  echo "  reference: $REF_PERF" >&2
  echo "  resumed:   $RESUME_PERF" >&2
  exit 1
fi
echo "kill-and-resume smoke passed (PERF records identical: $REF_PERF)"

echo "== observability smoke: metrics + trace capture, near-free telemetry =="
# Optimized, sanitizer-free build: timing under ASan would be meaningless.
# Compile commands are exported here for the clang-tidy stage below.
cmake -B "$PERF_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" \
  --target bench_variability bench_fig07_array_bias
OBS_METRICS="$SMOKE_DIR/metrics.json"
OBS_TRACE="$SMOKE_DIR/trace.json"
# --journal makes the sweep run once (no serial-vs-parallel double run).
FEFET_METRICS="$OBS_METRICS" FEFET_TRACE="$OBS_TRACE" \
  "$PERF_BUILD_DIR/bench/bench_variability" --threads 2 \
  --journal="$SMOKE_DIR/obs.journal" > "$SMOKE_DIR/obs.out"
if ! grep -q '^REPORT ' "$SMOKE_DIR/obs.out"; then
  echo "FAIL: bench_variability emitted no REPORT line" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OBS_METRICS" "$OBS_TRACE" <<'PYEOF'
import json
import sys

report = json.load(open(sys.argv[1]))
counters = report["metrics"]["counters"]
for key in ("fefet.newton.solves.compiled", "fefet.assembler.assemblies",
            "fefet.sweep.points_ok", "fefet.transient.steps"):
    assert counters.get(key, 0) > 0, f"counter {key} is zero or missing"
trace = json.load(open(sys.argv[2]))
names = {event["name"] for event in trace["traceEvents"]}
for span in ("sweep.point", "transient", "newton.solve", "newton.assemble",
             "newton.lu_solve"):
    assert span in names, f"span {span} missing from the trace"
print(f"validated {len(counters)} counters, "
      f"{len(trace['traceEvents'])} trace events")
PYEOF
else
  echo "python3 not installed; skipping JSON validation"
fi

# Telemetry must be ~free on an end-to-end run: two identical 8x8 arrays
# run the Fig. 7 write/read schedule in lockstep, metrics disabled on one
# and enabled on the other; each op's two runs form a pair timed in thread
# CPU time, with order and array assignment alternating.  The median
# enabled/disabled ratio over the 240 pairs must stay within 2%.
OVERHEAD_PERF=$("$PERF_BUILD_DIR/bench/bench_fig07_array_bias" --rows=8 \
  --cols=8 --writes=120 --telemetry-overhead | grep '^PERF ')
echo "$OVERHEAD_PERF"
OVERHEAD=$(echo "$OVERHEAD_PERF" | sed -E 's/.*"overhead":(-?[0-9.]+).*/\1/')
if ! awk -v o="$OVERHEAD" 'BEGIN { exit !(o <= 0.02) }'; then
  echo "FAIL: telemetry costs >2% on the Fig. 7 array transients:" \
       "median overhead $OVERHEAD" >&2
  exit 1
fi
# The same pairing on a 1x1 array, where a Newton iteration is cheapest and
# the telemetry's fixed cost per iteration is largest: within 10%.
SMALL_OVERHEAD_PERF=$("$PERF_BUILD_DIR/bench/bench_fig07_array_bias" --rows=1 \
  --cols=1 --writes=120 --telemetry-overhead | grep '^PERF ')
echo "$SMALL_OVERHEAD_PERF"
SMALL_OVERHEAD=$(echo "$SMALL_OVERHEAD_PERF" |
  sed -E 's/.*"overhead":(-?[0-9.]+).*/\1/')
if ! awk -v o="$SMALL_OVERHEAD" 'BEGIN { exit !(o <= 0.10) }'; then
  echo "FAIL: telemetry costs >10% on the 1x1 array transients:" \
       "median overhead $SMALL_OVERHEAD" >&2
  exit 1
fi
echo "observability smoke passed (telemetry overhead $OVERHEAD at 8x8," \
     "$SMALL_OVERHEAD at 1x1)"

echo "== bench determinism (stage 5): two runs of every bench and example print the same stdout =="
BENCHES=$(sed -nE 's/^fefet_add_bench\((bench_[a-z0-9_]+)\)$/\1/p' \
  bench/CMakeLists.txt)
# shellcheck disable=SC2086
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" --target $BENCHES
for bench in $BENCHES; do
  for run in 1 2; do
    if ! "$PERF_BUILD_DIR/bench/$bench" > "$SMOKE_DIR/$bench.raw"; then
      echo "FAIL: $bench exited non-zero" >&2
      exit 1
    fi
    sed -E '/^(PERF|REPORT) /d' "$SMOKE_DIR/$bench.raw" \
      > "$SMOKE_DIR/$bench.$run.out"
  done
  if ! cmp -s "$SMOKE_DIR/$bench.1.out" "$SMOKE_DIR/$bench.2.out"; then
    echo "FAIL: $bench printed different stdout on two runs" \
         "(PERF/REPORT lines excluded)" >&2
    diff "$SMOKE_DIR/$bench.1.out" "$SMOKE_DIR/$bench.2.out" | head -20 >&2
    exit 1
  fi
done
echo "bench determinism passed ($(echo "$BENCHES" | wc -w) benches)"

EXAMPLES=$(sed -nE 's/^fefet_add_example\(([a-z0-9_]+)\)$/\1/p' \
  examples/CMakeLists.txt)
# shellcheck disable=SC2086
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" --target $EXAMPLES
EXAMPLE_RUNS=0
# run_twice LABEL CMD...: CMD must exit 0 and print the same stdout twice.
run_twice() {
  local label=$1 run
  shift
  for run in 1 2; do
    if ! "$@" > "$SMOKE_DIR/$label.$run.out"; then
      echo "FAIL: $label exited non-zero" >&2
      exit 1
    fi
  done
  if ! cmp -s "$SMOKE_DIR/$label.1.out" "$SMOKE_DIR/$label.2.out"; then
    echo "FAIL: $label printed different stdout on two runs" >&2
    diff "$SMOKE_DIR/$label.1.out" "$SMOKE_DIR/$label.2.out" | head -20 >&2
    exit 1
  fi
  EXAMPLE_RUNS=$((EXAMPLE_RUNS + 1))
}
for example in $EXAMPLES; do
  if [ "$example" = netlist_sim ]; then
    for deck in examples/decks/*.sp; do
      run_twice "netlist_sim-$(basename "$deck" .sp)" \
        "$PERF_BUILD_DIR/examples/netlist_sim" "$deck"
    done
  else
    run_twice "$example" "$PERF_BUILD_DIR/examples/$example"
  fi
done
echo "example determinism passed ($EXAMPLE_RUNS example runs)"

echo "== black-box crash gate: SIGSEGV mid-sweep leaves a parseable dump =="
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" \
  --target bench_variability fefet_blackbox
BLACKBOX_CLI="$PERF_BUILD_DIR/src/tools/fefet-blackbox"
VARIABILITY_BENCH="$PERF_BUILD_DIR/bench/bench_variability"

# The sweep, sent SIGSEGV from outside mid-run, must leave a dump the CLI
# can parse, with the pre-crash solver event stream intact.  Polling (not
# a fixed sleep) matters: a signal during the closed-form Monte Carlo
# phase would find no solver events to check.  The .yield journal belongs
# to the Newton-running write-yield sweep, so once it holds its header
# plus one point record, solver events are in the rings and the sweep
# engine has refreshed the dump's metrics snapshot.  The whole unpadded
# sweep takes ~0.5 s, so the last yield points can finish within one poll
# interval; padding each point by 400 ms keeps the signal mid-sweep.
CRASH_BBX="$SMOKE_DIR/crash.bbx"
CRASH_JOURNAL="$SMOKE_DIR/crash.journal"
rm -f "$CRASH_BBX" "$CRASH_JOURNAL.yield"
FEFET_BLACKBOX="$CRASH_BBX" "$VARIABILITY_BENCH" --threads 2 \
  --journal="$CRASH_JOURNAL" --point-delay-ms=400 \
  > "$SMOKE_DIR/crash.out" 2>&1 &
CRASH_PID=$!
# Complete (newline-terminated) records in the write-yield journal.
yield_journal_lines() {
  if [ -f "$CRASH_JOURNAL.yield" ]; then
    wc -l < "$CRASH_JOURNAL.yield"
  else
    echo 0
  fi
}
for _ in $(seq 1 600); do
  [ "$(yield_journal_lines)" -ge 2 ] && break
  kill -0 "$CRASH_PID" 2>/dev/null || break
  sleep 0.1
done
if [ "$(yield_journal_lines)" -lt 2 ]; then
  echo "FAIL: bench_variability never journaled a write-yield point" >&2
  kill "$CRASH_PID" 2>/dev/null || true
  cat "$SMOKE_DIR/crash.out" >&2
  exit 1
fi
kill -SEGV "$CRASH_PID" 2>/dev/null || true
if wait "$CRASH_PID"; then
  echo "FAIL: SIGSEGV'd bench_variability exited cleanly" >&2
  exit 1
fi
if ! [ -s "$CRASH_BBX" ]; then
  echo "FAIL: crashed run left no black-box dump" >&2
  exit 1
fi
if ! "$BLACKBOX_CLI" "$CRASH_BBX" > "$SMOKE_DIR/crash.txt"; then
  echo "FAIL: fefet-blackbox could not parse the crash dump" >&2
  exit 1
fi
if ! grep -q 'SIGSEGV' "$SMOKE_DIR/crash.txt"; then
  echo "FAIL: crash dump does not record the fatal signal" >&2
  cat "$SMOKE_DIR/crash.txt" >&2
  exit 1
fi
for event in solve_start newton_residual; do
  if ! grep -q "$event" "$SMOKE_DIR/crash.txt"; then
    echo "FAIL: crash dump carries no pre-crash $event events" >&2
    head -40 "$SMOKE_DIR/crash.txt" >&2
    exit 1
  fi
done
if ! grep -qE 'metrics json +: embedded' "$SMOKE_DIR/crash.txt"; then
  echo "FAIL: crash dump carries no metrics snapshot" >&2
  head -20 "$SMOKE_DIR/crash.txt" >&2
  exit 1
fi
echo "black-box crash gate passed (dump parsed:" \
     "$(grep -c '^ ' "$SMOKE_DIR/crash.txt" || true) event lines)"

echo "== clang-tidy: performance + modernize over the solver hot path =="
if command -v clang-tidy >/dev/null 2>&1; then
  # shellcheck disable=SC2046
  clang-tidy -p "$PERF_BUILD_DIR" --quiet \
    $(ls src/spice/*.cc src/common/*.cc)
  echo "clang-tidy passed"
else
  echo "clang-tidy not installed; skipping static-analysis stage"
fi

echo "== hierarchical solver gate: BBD/Schur parity + speedup =="
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" --target bench_fig07_array_bias
HIER_BENCH="$PERF_BUILD_DIR/bench/bench_fig07_array_bias"
# Parity: identical write/hold/read schedule hierarchically and flat on a
# 32x32 electrical array; the bench exits non-zero when the DESIGN.md §6.7
# tolerances are violated (the PERF line carries the measured deviations).
if ! "$HIER_BENCH" --rows=32 --cols=32 --writes=2 --parity \
    > "$SMOKE_DIR/hier-parity.out"; then
  echo "FAIL: 32x32 hierarchical-vs-flat parity gate" >&2
  cat "$SMOKE_DIR/hier-parity.out" >&2
  exit 1
fi
grep '^PERF ' "$SMOKE_DIR/hier-parity.out"
# Speedup: the same short transient flat vs hierarchical at 64x64.
"$HIER_BENCH" --rows=64 --cols=64 --speedup --threads=4 \
  > "$SMOKE_DIR/hier-speedup.out"
HIER_PERF=$(grep '^PERF ' "$SMOKE_DIR/hier-speedup.out")
echo "$HIER_PERF"
HIER_SPEEDUP=$(echo "$HIER_PERF" | sed -E 's/.*"speedup":([0-9.]+).*/\1/')
if ! awk -v s="$HIER_SPEEDUP" 'BEGIN { exit !(s >= 2.0) }'; then
  echo "FAIL: hierarchical solve speedup $HIER_SPEEDUP is below the 2x floor" >&2
  exit 1
fi
echo "hierarchical solver gate passed (64x64 speedup ${HIER_SPEEDUP}x)"
