#!/usr/bin/env bash
# Sanitizer + resilience + perf + observability gate, nine stages:
#
#  1. ASan + UBSan (FEFET_SANITIZE=address) over the full test suite —
#     memory errors and UB in the netlist/device ownership chain (the
#     suite includes the assembler-vs-oracle stamp parity tests, so the
#     assembly engine runs under ASan);
#  2. TSan (FEFET_SANITIZE=thread) over the concurrency-sensitive tests
#     (the sweep engine / thread pool, the LU-reuse solver path, the
#     stamp-parity suite, the shard-lease board and the parallel per-block
#     Schur factorization) — data races in the sim layer.  TSan cannot
#     combine with ASan, hence the separate build directory;
#  3. kill-and-resume smoke: SIGKILL a journaled bench sweep mid-run, then
#     --resume it and require the PERF record (results CRC + outcome
#     tally, wall-clock and from_journal fields excluded) to match an
#     uninterrupted run bit for bit;
#  4. observability smoke: a traced bench_variability sweep must emit a
#     metrics-JSON report with nonzero newton/assembler/sweep/controller
#     counters and a Chrome trace with the nested span taxonomy (both
#     validated with python3), and telemetry must stay ~free — enabled
#     bench_assembly within 2% of disabled, best of 3;
#  5. kill-storm chaos gate: bench_variability sharded across worker
#     processes with --chaos-kill-p self-SIGKILLs, leases reclaimed and
#     crashed workers restarted — the merged results CRC must be
#     bit-identical to the unsharded run's;
#  6. serving-layer chaos gate: bench_macro_service under a power-fail
#     storm (--storm-p=0.2) — every acked write must read back exactly
#     (acked_lost=0), no torn word may be served (torn_served=0), and the
#     shed rate of backpressure-honoring clients must stay bounded;
#  7. hierarchical solver gate: bench_fig07_array_bias --parity at 32x32
#     must match the flat oracle within the DESIGN.md §6.7 tolerances
#     (1e-3 of the memory window, 0.5% read current), and --speedup at
#     64x64 must show the BBD/Schur path >= 2x faster than the flat
#     sparse-LU solve on the same transient;
#  8. telemetry plane: bench_macro_service under storms with
#     FEFET_EXPORT_PORT=0 — scrape /metrics and /statusz mid-run, validate
#     the Prometheus exposition with python3, and require every scraped
#     counter <= its end-of-run REPORT value; then the black-box crash
#     gate: a worker deliberately SIGSEGV'd mid-storm must leave a dump
#     that fefet-blackbox parses and pretty-prints;
#  9. clang-tidy (performance-* as errors + modernize subset, .clang-tidy)
#     over src/spice and src/common — skipped with a notice when
#     clang-tidy is not installed.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

ASAN_BUILD_DIR=build-sanitize
TSAN_BUILD_DIR=build-tsan
PERF_BUILD_DIR=build-perf

echo "== ASan/UBSan: full suite =="
cmake -B "$ASAN_BUILD_DIR" -S . -DFEFET_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_BUILD_DIR" -j"$(nproc)"

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
  test_obs test_obs_exporter test_flight_recorder test_shard_lease \
  test_serve test_serve_concurrent test_schur_solver test_hier_array

# The ^(...)\. anchors keep the test_obs suites from pulling in unbuilt
# binaries with similar names (Trace vs PowerTrace, LogJson vs Logistic).
TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j"$(nproc)" \
  -R 'ThreadPool|SweepEngine|SparseLuFactorizer|LuReuse|Variability|StampParity|ShardLease|ServeConcurrent|MacroService|ShardStore|StormStream|SchurSolver|HierArray|PrometheusText|HandleRequest|ExporterServer|FlightRecorder|^(JsonChecker|Metrics|Trace|RunReport|ObsAlloc|LogPrefix|LogJson|Admission)\.' "$@"

echo "== kill-and-resume smoke: journaled sweep survives SIGKILL =="
cmake --build "$ASAN_BUILD_DIR" -j"$(nproc)" --target bench_fault_resilience
BENCH="$ASAN_BUILD_DIR/bench/bench_fault_resilience"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

# PERF record minus the fields legitimately differing between a fresh and
# a resumed run (wall clock, speedup, replay count).
normalize_perf() {
  grep '^PERF ' "$1" \
    | sed -E 's/"(serial_s|parallel_s|speedup)":[0-9.]+,?//g; s/"from_journal":[0-9]+,//'
}

"$BENCH" --journal="$SMOKE_DIR/ref.journal" > "$SMOKE_DIR/ref.out"

# Pad each point so SIGKILL reliably lands mid-sweep, then pull the rug.
"$BENCH" --journal="$SMOKE_DIR/kill.journal" --point-delay-ms=400 \
  > "$SMOKE_DIR/kill.out" 2>&1 &
BENCH_PID=$!
sleep 1.2
kill -KILL "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true
if ! [ -s "$SMOKE_DIR/kill.journal" ]; then
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
  --target bench_variability bench_assembly
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
            "fefet.sweep.points_ok", "fefet.controller.word_writes",
            "fefet.transient.steps"):
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

# Telemetry must be ~free when it counts: compiled assemble phase with
# metrics enabled vs disabled, best of 3 each, within 2%.
best_compiled_assemble() {
  local best=""
  local run seconds
  for run in 1 2 3; do
    seconds=$(FEFET_METRICS="$1" "$PERF_BUILD_DIR/bench/bench_assembly" \
      | grep '^PERF ' | sed -E 's/.*"compiled_assemble_s":([0-9.]+).*/\1/')
    if [ -z "$best" ] || \
       awk -v a="$seconds" -v b="$best" 'BEGIN { exit !(a < b) }'; then
      best="$seconds"
    fi
  done
  echo "$best"
}
DISABLED_S=$(best_compiled_assemble 0)
ENABLED_S=$(best_compiled_assemble 1)
if ! awk -v e="$ENABLED_S" -v d="$DISABLED_S" \
    'BEGIN { exit !(e <= d * 1.02) }'; then
  echo "FAIL: telemetry costs >2% on bench_assembly:" \
       "enabled ${ENABLED_S}s vs disabled ${DISABLED_S}s" >&2
  exit 1
fi
echo "observability smoke passed" \
     "(compiled assemble: disabled ${DISABLED_S}s, enabled ${ENABLED_S}s)"

echo "== kill-storm: sharded sweep under random SIGKILLs stays bit-identical =="
# The same optimized bench_variability, twice: once unsharded (the
# reference CRC), once split across 4 shards / 2 worker processes with a
# 30% chance each worker self-SIGKILLs after every durable point append.
# Leases expire, survivors and restarted workers reclaim the ranges, and
# the first-wins merge must reproduce the reference CRC bit for bit.
crc_of() {
  grep '^PERF ' "$1" | sed -E 's/.*"results_crc":"([0-9a-f]+)".*/\1/'
}
"$PERF_BUILD_DIR/bench/bench_variability" \
  --journal="$SMOKE_DIR/storm-ref.journal" > "$SMOKE_DIR/storm-ref.out"
REF_CRC=$(crc_of "$SMOKE_DIR/storm-ref.out")
"$PERF_BUILD_DIR/bench/bench_variability" --shards=4 --shard-workers=2 \
  --chaos-kill-p=0.3 --chaos-seed=11 --lease-ttl-s=1 \
  --shard-lease="$SMOKE_DIR/storm.board" > "$SMOKE_DIR/storm.out"
STORM_PERF=$(grep '^PERF ' "$SMOKE_DIR/storm.out")
echo "$STORM_PERF"
STORM_CRC=$(crc_of "$SMOKE_DIR/storm.out")
if [ "$STORM_CRC" != "$REF_CRC" ]; then
  echo "FAIL: kill-storm merge CRC $STORM_CRC differs from unsharded" \
       "reference $REF_CRC" >&2
  exit 1
fi
if ! echo "$STORM_PERF" | grep -q '"complete":true'; then
  echo "FAIL: kill-storm run did not complete the board" >&2
  exit 1
fi
# The crash count depends on which worker races to which point, so it is
# advisory: a storm that happened to land zero kills still proves the CRC.
if echo "$STORM_PERF" | grep -q '"restarts":0'; then
  echo "WARN: chaos produced no worker restarts this run" >&2
fi
echo "kill-storm smoke passed (CRC $STORM_CRC matches unsharded reference)"

echo "== serve chaos gate: acked writes survive power-fail storms =="
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" --target bench_macro_service
SERVE_OUT="$SMOKE_DIR/serve.out"
# The bench itself exits non-zero on any acked-write loss, torn read, or
# lost completion; the PERF fields are re-asserted here so a regression
# in the bench's own exit-code logic cannot mask one in the service.
if ! "$PERF_BUILD_DIR/bench/bench_macro_service" --ops=6000 --storm-p=0.2 \
    --seed=11 > "$SERVE_OUT"; then
  echo "FAIL: bench_macro_service chaos run violated a durability invariant" >&2
  cat "$SERVE_OUT" >&2
  exit 1
fi
SERVE_PERF=$(grep '^PERF ' "$SERVE_OUT")
echo "$SERVE_PERF"
for field in acked_lost torn_served; do
  if ! echo "$SERVE_PERF" | grep -Eq "\"$field\":0[,}]"; then
    echo "FAIL: serve chaos gate: $field is nonzero" >&2
    exit 1
  fi
done
if echo "$SERVE_PERF" | grep -q '"power_fails":0,'; then
  echo "FAIL: serve chaos gate: the storm injected no power failures" >&2
  exit 1
fi
SERVE_SHED_RATE=$(echo "$SERVE_PERF" \
  | sed -E 's/.*"shed_rate":([0-9.]+).*/\1/')
if ! awk -v s="$SERVE_SHED_RATE" 'BEGIN { exit !(s <= 0.5) }'; then
  echo "FAIL: serve chaos gate: shed rate $SERVE_SHED_RATE exceeds 0.5" >&2
  exit 1
fi
echo "serve chaos gate passed (no acked write lost, no torn word served," \
     "shed rate ${SERVE_SHED_RATE})"

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

echo "== telemetry plane: live /metrics scrape + black-box crash gate =="
cmake --build "$PERF_BUILD_DIR" -j"$(nproc)" \
  --target bench_macro_service fefet_blackbox
BLACKBOX_CLI="$PERF_BUILD_DIR/src/tools/fefet-blackbox"
if command -v python3 >/dev/null 2>&1; then
  TELEM_OUT="$SMOKE_DIR/telemetry.out"
  # --op-delay-us paces the submitters so the storm run stays alive for a
  # few seconds — long enough to scrape /metrics while it serves.
  FEFET_EXPORT_PORT=0 FEFET_BLACKBOX="$SMOKE_DIR/telemetry.bbx" \
    "$PERF_BUILD_DIR/bench/bench_macro_service" --ops=12000 --storm-p=0.2 \
    --op-delay-us=600 --seed=7 > "$TELEM_OUT" &
  TELEM_PID=$!
  # The exporter announces its ephemeral port on stdout at startup.
  TELEM_PORT=""
  for _ in $(seq 1 100); do
    TELEM_PORT=$(sed -nE 's/^EXPORT \{"port":([0-9]+)\}.*/\1/p' "$TELEM_OUT" \
      | head -1)
    [ -n "$TELEM_PORT" ] && break
    sleep 0.1
  done
  if [ -z "$TELEM_PORT" ]; then
    echo "FAIL: bench_macro_service announced no exporter port" >&2
    kill "$TELEM_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.3  # let the shard workers register their gauges
  # Mid-run scrape: the exposition must parse and carry serve metrics.
  python3 - "$TELEM_PORT" > "$SMOKE_DIR/scrape.txt" <<'PYEOF'
import sys
import urllib.request

port = sys.argv[1]
metrics = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
families = set()
for line in metrics.splitlines():
    if not line or line.startswith("#"):
        continue
    name, _, value = line.partition(" ")
    name = name.partition("{")[0]
    assert name and not name[0].isdigit(), f"bad metric name: {line}"
    assert all(c.isalnum() or c in "_:" for c in name), f"bad name: {line}"
    float(value)  # must parse
    families.add(name)
assert any(f.startswith("fefet_serve_") for f in families), \
    f"no serve metrics in the mid-run scrape: {sorted(families)[:10]}"
statusz = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/statusz", timeout=10).read().decode()
import json
status = json.loads(statusz)
assert "uptime_s" in status and "macro_service" in status["providers"], \
    "statusz is missing the macro_service provider"
assert status["providers"]["macro_service"]["shards"] > 0
sys.stdout.write(metrics)
sys.stderr.write(f"scraped {len(families)} metric families mid-run\n")
PYEOF
  if ! wait "$TELEM_PID"; then
    echo "FAIL: the scraped storm run violated a durability invariant" >&2
    cat "$TELEM_OUT" >&2
    exit 1
  fi
  # The mid-run scrape must be consistent with the end-of-run REPORT:
  # every counter present in both is monotone, so scraped <= final.
  python3 - "$SMOKE_DIR/scrape.txt" "$TELEM_OUT" <<'PYEOF'
import json
import sys

scraped = {}
for line in open(sys.argv[1]):
    if not line.strip() or line.startswith("#") or "{" in line:
        continue
    name, _, value = line.partition(" ")
    scraped[name] = float(value)
report = None
for line in open(sys.argv[2]):
    if line.startswith("REPORT "):
        report = json.loads(line[len("REPORT "):])
assert report is not None, "no REPORT line"
final = {k.replace(".", "_"): v
         for k, v in report["metrics"]["counters"].items()}
compared = 0
for name, value in scraped.items():
    if name in final:
        assert value <= final[name], \
            f"scraped {name}={value} exceeds end-of-run {final[name]}"
        compared += 1
assert compared > 0, "scrape and REPORT share no counters"
print(f"mid-run scrape consistent with REPORT ({compared} counters)")
PYEOF

  # Black-box crash gate: a worker SIGSEGV'd mid-storm must leave a dump
  # the CLI can parse, with the pre-crash event stream intact.
  CRASH_BBX="$SMOKE_DIR/crash.bbx"
  CRASH_OUT="$SMOKE_DIR/crash.out"
  rm -f "$CRASH_BBX"
  if FEFET_BLACKBOX="$CRASH_BBX" "$PERF_BUILD_DIR/bench/bench_macro_service" \
      --ops=20000 --storm-p=0.2 --crash-after-ops=500 --seed=3 \
      > "$CRASH_OUT" 2>&1; then
    echo "FAIL: --crash-after-ops run exited cleanly" >&2
    exit 1
  fi
  if ! [ -s "$CRASH_BBX" ]; then
    echo "FAIL: crashed worker left no black-box dump" >&2
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
  if ! grep -q 'storm_injection' "$SMOKE_DIR/crash.txt"; then
    echo "FAIL: crash dump carries no pre-crash storm events" >&2
    cat "$SMOKE_DIR/crash.txt" >&2
    exit 1
  fi
  echo "telemetry plane passed (live scrape consistent, crash dump" \
       "parsed: $(grep -c '^ ' "$SMOKE_DIR/crash.txt" || true) event lines)"
else
  echo "python3 not installed; skipping telemetry-plane stage"
fi

echo "== clang-tidy: performance + modernize over the solver hot path =="
if command -v clang-tidy >/dev/null 2>&1; then
  # shellcheck disable=SC2046
  clang-tidy -p "$PERF_BUILD_DIR" --quiet \
    $(ls src/spice/*.cc src/common/*.cc)
  echo "clang-tidy passed"
else
  echo "clang-tidy not installed; skipping static-analysis stage"
fi
