// driver.cc — perfbench workload driver.
//
// Runs one benchmark workload through the public API of the core and sim
// libraries and prints one JSON object of raw measurements on stdout:
// per-build setup times, per-op host times and simulated outputs, the
// counter deltas of the timed phase and, with --trace, the self-time tree
// of a traced replay.  perfbench/run.py generates the op schedule, turns
// the raw numbers into metrics and checks the outputs against the captured
// reference.  Each pass is written out as soon as it ends, so the driver
// holds no large result strings while the program's peak memory is read.
//
//   perfbench_driver --workload array8|array32|cell_sweep --ops FILE
//                    [--builds N] [--passes N] [--trace] [--trace-json FILE]
//
// Each of the N builds times the fixture set-up; every (N / passes)-th
// build then runs the whole schedule as one timed pass, so set-up samples
// and passes interleave over the run.  The passes repeat the same
// deterministic work, so run.py can keep each op's fastest time.
// With --trace a traced replay follows each of the first kTracedReplays
// untraced passes.
//
// Ops and set-up are timed in host CPU time (clock_gettime thread and
// process CPU clocks), which leaves out the time the driver's threads wait
// for a processor: other processes' load and hypervisor steal.  Pass wall
// times and trace spans are wall-clock.
//
// Ops file: one op per line.  Array workloads start with "I bits" (the
// initial pattern, row-major '0'/'1') and then take "W row col bit",
// "R row col" and "H"; cell_sweep takes "P seed" (one Monte Carlo point).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <time.h>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "core/materials.h"
#include "core/variability.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sweep_engine.h"
#include "spice/deck_parser.h"
#include "spice/hier_engine.h"
#include "spice/netlist.h"

namespace {

using namespace fefet;

constexpr double kHoldTime = 1e-9;      // array hold op and cell hold op
constexpr double kCellPulse = 550e-12;  // paper Table 3 write pulse
constexpr int kSweepWorkers = 2;
constexpr std::size_t kTracedPoints = 120;  // cell_sweep traced replay size
constexpr int kTracedReplays = 3;  // traced replays per --trace run
constexpr int kDeckReplays = 3;    // spice.deck_ms / freeze_ms samples

std::uint64_t clockNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Host CPU time of the calling thread (ops and sweep points).
std::uint64_t threadCpuNanos() { return clockNanos(CLOCK_THREAD_CPUTIME_ID); }

/// Host CPU time of all threads of the process (set-up, which starts the
/// sweep pool).
std::uint64_t processCpuNanos() { return clockNanos(CLOCK_PROCESS_CPUTIME_ID); }

double msSince(std::uint64_t startNs, std::uint64_t (*clock)() = monotonicNanos) {
  return static_cast<double>(clock() - startNs) * 1e-6;
}

double cpuMsSince(std::uint64_t startNs) {
  return msSince(startNs, threadCpuNanos);
}

/// Streams a piece of the result to stdout.
void emit(const std::string& text) { std::fputs(text.c_str(), stdout); }

// ---- minimal JSON emission -------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Flat JSON object builder: fields appended in order, values pre-rendered.
class Obj {
 public:
  Obj& add(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key);
    body_ += ':';
    body_ += rendered;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return add(key, ::num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string numList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

std::string objList(const std::vector<std::string>& objects) {
  std::string out = "[";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i) out += ',';
    out += objects[i];
  }
  return out + "]";
}

// ---- counters and trace -----------------------------------------------------

/// Every registered counter plus the sweep queue-wait histogram totals.
std::string countersJson() {
  const auto snap = obs::Metrics::snapshot();
  Obj out;
  for (const auto& c : snap.counters) {
    if (c.value != 0) out.num(c.name, static_cast<double>(c.value));
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "fefet.sweep.queue_wait_s") {
      out.num(h.name + ".sum", h.sum);
      out.num(h.name + ".count", static_cast<double>(h.count));
    }
  }
  return out.str();
}

/// Spans this file records: their self time is the unattributed leaf.
bool benchSpan(const std::string& name) { return name.rfind("bench.", 0) == 0; }

/// Self-time tree of the traced timed phase.  Spans nest by timestamp
/// containment per thread; a span's self time is its duration minus the
/// durations of its direct children.  Only trees whose root starts at or
/// after `phaseStartNs` count (setup spans stay in the Chrome trace only).
std::string traceTreeJson(std::uint64_t phaseStartNs) {
  auto events = obs::Trace::events();
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.thread != b.thread) return a.thread < b.thread;
                     if (a.startNs != b.startNs) return a.startNs < b.startNs;
                     return a.durNs > b.durNs;  // parent before child
                   });
  struct Open {
    const obs::TraceEvent* ev;
    std::uint64_t childNs;
    bool inPhase;
  };
  std::map<std::string, std::uint64_t> selfNs;
  std::uint64_t rootNs = 0, violations = 0, counted = 0;
  std::vector<Open> stack;
  int thread = -1;
  const auto close = [&](const Open& o) {
    if (!o.inPhase) return;
    const std::uint64_t self =
        o.ev->durNs > o.childNs ? o.ev->durNs - o.childNs : 0;
    selfNs[o.ev->name] += self;
  };
  for (const auto& e : events) {
    if (e.thread != thread) {
      while (!stack.empty()) close(stack.back()), stack.pop_back();
      thread = e.thread;
    }
    while (!stack.empty() &&
           stack.back().ev->startNs + stack.back().ev->durNs <= e.startNs) {
      close(stack.back());
      stack.pop_back();
    }
    bool inPhase = false;
    if (stack.empty()) {
      inPhase = e.startNs >= phaseStartNs;
      if (inPhase) rootNs += e.durNs;
    } else {
      Open& parent = stack.back();
      inPhase = parent.inPhase;
      if (e.startNs + e.durNs > parent.ev->startNs + parent.ev->durNs) {
        ++violations;
      }
      parent.childNs += e.durNs;
    }
    if (inPhase) ++counted;
    stack.push_back({&e, 0, inPhase});
  }
  while (!stack.empty()) close(stack.back()), stack.pop_back();

  Obj self;
  for (const auto& [name, ns] : selfNs) {
    self.num(benchSpan(name) ? "bench:" + name : name,
             static_cast<double>(ns) * 1e-6);
  }
  return Obj()
      .add("self_ms", self.str())
      .num("root_ms", static_cast<double>(rootNs) * 1e-6)
      .num("violations", static_cast<double>(violations))
      .num("events", static_cast<double>(counted))
      .num("dropped", static_cast<double>(obs::Trace::dropped()))
      .str();
}

/// Per-thread ring capacity for a traced replay, sized from the counters
/// of the last untraced pass: each Newton iteration records an assemble
/// and a solve span, each Newton solve and transient run one more.
/// `share` is the fraction of that pass one thread replays; the estimate
/// gets 50% headroom (trace.dropped_events shows any overflow).
std::size_t traceRingEvents(double share, std::size_t benchSpans) {
  const auto snap = obs::Metrics::snapshot();
  std::uint64_t spans = snap.counterValue("fefet.transient.runs");
  for (const auto& c : snap.counters) {
    if (c.name.rfind("fefet.newton.iterations.", 0) == 0) spans += 2 * c.value;
    if (c.name.rfind("fefet.newton.solves.", 0) == 0) spans += c.value;
  }
  return static_cast<std::size_t>(1.5 * share * static_cast<double>(spans)) +
         benchSpans + 4096;
}

/// Peak resident set of this process image.  VmHWM rather than
/// getrusage's ru_maxrss, which keeps the forked parent's peak across exec.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---- array workloads --------------------------------------------------------

struct ArrayOp {
  char kind = 'H';
  int row = 0;
  int col = 0;
  bool bit = false;
};

core::ArrayNetlistConfig arrayConfig(const std::string& workload) {
  core::ArrayNetlistConfig config;
  if (workload == "array8") {
    config.rows = config.cols = 8;  // program-default solver
  } else {
    config.rows = config.cols = 32;
    config.newton.useHierarchicalSolve = true;
    config.newton.hierThreads = 1;
  }
  return config;
}

struct ArrayPass {
  double wallMs = 0.0;
  std::vector<std::string> ops;
  std::vector<double> finalP;
};

/// Solver-owned counters that are not in the metrics registry.
struct SolverCounts {
  double full = 0, refactors = 0, fallbacks = 0;
  double blockFactors = 0, blockSkips = 0, collapses = 0, expands = 0;
  double schurRefactors = 0, schurReuses = 0;

  static SolverCounts of(core::ArrayNetlist& array) {
    const auto& newton = array.simulator().newton();
    const auto& lu = newton.sparseFactorizer();
    SolverCounts c;
    c.full = static_cast<double>(lu.fullFactorizations());
    c.refactors = static_cast<double>(lu.numericRefactorizations());
    c.fallbacks = static_cast<double>(lu.pivotFallbacks());
    if (const spice::HierEngine* hier = newton.hier()) {
      const auto& s = hier->stats();
      c.blockFactors = static_cast<double>(s.blockFactorizations);
      c.blockSkips = static_cast<double>(s.blockFactorSkips);
      c.collapses = static_cast<double>(s.collapses);
      c.expands = static_cast<double>(s.expands);
      c.schurRefactors = static_cast<double>(s.schurRefactorizations);
      c.schurReuses = static_cast<double>(s.schurReuses);
    }
    return c;
  }
  std::string deltaJson(const SolverCounts& before) const {
    return Obj()
        .num("lu.full_factorizations", full - before.full)
        .num("lu.numeric_refactors", refactors - before.refactors)
        .num("lu.pivot_fallbacks", fallbacks - before.fallbacks)
        .num("schur.block_factorizations", blockFactors - before.blockFactors)
        .num("schur.block_skips", blockSkips - before.blockSkips)
        .num("schur.collapses", collapses - before.collapses)
        .num("schur.expands", expands - before.expands)
        .num("schur.refactors", schurRefactors - before.schurRefactors)
        .num("schur.reuses", schurReuses - before.schurReuses)
        .str();
  }
};

ArrayPass runArrayOps(core::ArrayNetlist& array,
                      const std::vector<ArrayOp>& ops) {
  ArrayPass pass;
  const std::uint64_t start = monotonicNanos();
  for (const ArrayOp& op : ops) {
    Obj rec;
    rec.add("k", quote(std::string(1, op.kind)));
    const std::uint64_t t0 = threadCpuNanos();
    try {
      core::ArrayNetOpResult res;
      if (op.kind == 'W') {
        const obs::Span span("bench.op.write");
        res = array.writeBit(op.row, op.col, op.bit);
      } else if (op.kind == 'R') {
        const obs::Span span("bench.op.read");
        res = array.readBit(op.row, op.col);
      } else {
        const obs::Span span("bench.op.hold");
        res = array.hold(kHoldTime);
      }
      rec.num("ms", cpuMsSince(t0)).num("ok", res.ok ? 1 : 0);
      rec.num("d", res.maxUnaccessedDisturb);
      if (op.kind != 'H') {
        const auto p = array.polarizations();
        rec.num("p", p[static_cast<std::size_t>(op.row)]
                      [static_cast<std::size_t>(op.col)]);
      }
      if (op.kind == 'W') {
        rec.num("bit", array.bitAt(op.row, op.col) ? 1 : 0)
            .num("e", res.totalEnergy);
      } else if (op.kind == 'R') {
        rec.num("bit", res.bitRead ? 1 : 0).num("i", res.readCurrent);
      }
    } catch (const std::exception& e) {
      rec.num("ms", cpuMsSince(t0)).num("ok", 0).add("error", quote(e.what()));
    }
    pass.ops.push_back(rec.str());
  }
  pass.wallMs = msSince(start);
  for (const auto& row : array.polarizations()) {
    pass.finalP.insert(pass.finalP.end(), row.begin(), row.end());
  }
  return pass;
}

struct ArraySetup {
  std::unique_ptr<core::ArrayNetlist> array;
  double setupMs = 0.0, buildMs = 0.0;
};

/// Fixture build: constructor and initial pattern, plus one warm-up hold
/// outside the timed phase, which pays the first symbolic LU, the
/// slot-program compile and any pool start.
ArraySetup buildArray(const core::ArrayNetlistConfig& config,
                      const std::vector<std::vector<bool>>& pattern) {
  ArraySetup s;
  const std::uint64_t t0 = processCpuNanos();
  {
    const obs::Span span("bench.setup.build");
    s.array = std::make_unique<core::ArrayNetlist>(config);
    s.array->setPattern(pattern);
  }
  s.buildMs = msSince(t0, processCpuNanos);
  {
    const obs::Span span("bench.setup.warmup");
    s.array->hold(kHoldTime);
  }
  s.setupMs = msSince(t0, processCpuNanos);
  return s;
}

/// The deck and freeze steps of the constructor, replayed on their own
/// so their share of the build is visible (the library has no span for
/// them).  The steps copy the ArrayNetlist constructor in
/// src/core/array_netlist.cc: emitArrayDeck parsed by parseDeckString, the
/// wbl<c>/sl<c> column lines marked as border nodes, then the freeze its
/// Simulator performs.  Keep them in step when the constructor changes.
void timeDeckAndFreeze(const core::ArrayNetlistConfig& config, double& deckMs,
                       double& freezeMs) {
  const std::uint64_t t0 = threadCpuNanos();
  spice::Netlist netlist;
  spice::parseDeckString(core::emitArrayDeck(config), netlist);
  deckMs = cpuMsSince(t0);
  for (int c = 0; c < config.cols; ++c) {
    netlist.markBorderNode("wbl" + std::to_string(c));
    netlist.markBorderNode("sl" + std::to_string(c));
  }
  const std::uint64_t t1 = threadCpuNanos();
  netlist.freeze();
  freezeMs = cpuMsSince(t1);
}

std::vector<ArrayOp> parseArrayOps(std::istream& in,
                                   const core::ArrayNetlistConfig& config,
                                   std::vector<std::vector<bool>>& pattern) {
  std::string kind, bits;
  if (!(in >> kind >> bits) || kind != "I" ||
      bits.size() != static_cast<std::size_t>(config.rows * config.cols)) {
    throw std::runtime_error("ops file: expected 'I bits' with one bit per cell");
  }
  pattern.assign(static_cast<std::size_t>(config.rows),
                 std::vector<bool>(static_cast<std::size_t>(config.cols)));
  for (std::size_t k = 0; k < bits.size(); ++k) {
    pattern[k / static_cast<std::size_t>(config.cols)]
           [k % static_cast<std::size_t>(config.cols)] = bits[k] == '1';
  }
  std::vector<ArrayOp> ops;
  while (in >> kind) {
    ArrayOp op;
    op.kind = kind.size() == 1 ? kind[0] : '?';
    if (op.kind == 'W') {
      int bit = 0;
      in >> op.row >> op.col >> bit;
      op.bit = bit != 0;
    } else if (op.kind == 'R') {
      in >> op.row >> op.col;
    } else if (op.kind != 'H') {
      throw std::runtime_error("ops file: unknown array op '" + kind + "'");
    }
    if (!in) throw std::runtime_error("ops file: truncated array op");
    if (op.kind != 'H' && (op.row < 0 || op.row >= config.rows ||
                           op.col < 0 || op.col >= config.cols)) {
      throw std::runtime_error("ops file: cell outside the array");
    }
    ops.push_back(op);
  }
  return ops;
}

/// True when build `b` (0-based) of `builds` is followed by a timed pass.
bool passAfterBuild(int b, int builds, int passes) {
  const int stride = builds / passes;
  return b % stride == stride - 1 && b / stride < passes;
}

/// One untraced timed pass: the schedule on a fresh fixture, with the
/// counter deltas it caused.  Returns the pass's wall time.
double emitArrayPass(core::ArrayNetlist& array, const std::vector<ArrayOp>& ops) {
  obs::Metrics::reset();
  const SolverCounts before = SolverCounts::of(array);
  const ArrayPass pass = runArrayOps(array, ops);
  emit(Obj()
           .num("wall_ms", pass.wallMs)
           .add("ops", objList(pass.ops))
           .add("final_p", numList(pass.finalP))
           .add("counters", countersJson())
           .add("solver", SolverCounts::of(array).deltaJson(before))
           .str());
  return pass.wallMs;
}

/// One traced replay of the schedule on a fresh fixture.  Enabling the
/// trace drops the previous replay's events, so the Chrome trace written at
/// the end holds the last replay.
std::string tracedArrayPassJson(const core::ArrayNetlistConfig& config,
                                const std::vector<std::vector<bool>>& pattern,
                                const std::vector<ArrayOp>& ops,
                                double untracedWallMs) {
  obs::Trace::enable(traceRingEvents(1.0, ops.size() + 8));
  const ArraySetup fixture = buildArray(config, pattern);
  const std::uint64_t phaseStart = monotonicNanos();
  const ArrayPass pass = runArrayOps(*fixture.array, ops);
  obs::Trace::disable();
  return Obj()
      .num("wall_ms", pass.wallMs)
      .num("untraced_wall_ms", untracedWallMs)
      .add("tree", traceTreeJson(phaseStart))
      .str();
}

/// Writes the traced replays and whether the Chrome trace was written.
void emitTraced(const std::vector<std::string>& traced,
                const std::string& traceJsonPath) {
  const bool written =
      traceJsonPath.empty() || obs::Trace::writeChromeJson(traceJsonPath);
  emit(",\"traced\":" + objList(traced) +
       ",\"trace_written\":" + (written ? "1" : "0"));
}

void runArrayWorkload(const std::string& workload, std::istream& opsIn,
                      int builds, int passes, bool trace,
                      const std::string& traceJsonPath) {
  const auto config = arrayConfig(workload);
  std::vector<std::vector<bool>> pattern;
  const auto ops = parseArrayOps(opsIn, config, pattern);

  // Every build is timed; every (builds / passes)-th one runs the schedule,
  // and with --trace a traced replay follows the first kTracedReplays
  // passes, so that each replay and the pass before it see the same
  // machine conditions.
  std::vector<double> setupMs, buildMs, deckMs, freezeMs;
  std::vector<std::string> tracedJson;
  double window = 0.0;
  int passesRun = 0;
  ArraySetup fixture;
  emit("{\"workload\":" + quote(workload) + ",\"passes\":[");
  for (int b = 0; b < builds; ++b) {
    fixture.array.reset();  // previous fixture torn down outside the timer
    fixture = buildArray(config, pattern);
    setupMs.push_back(fixture.setupMs);
    buildMs.push_back(fixture.buildMs);
    window = std::abs(fixture.array->pOn() - fixture.array->pOff());
    if (passAfterBuild(b, builds, passes)) {
      if (passesRun++ > 0) emit(",");
      const double wallMs = emitArrayPass(*fixture.array, ops);
      if (trace && passesRun <= kTracedReplays) {
        tracedJson.push_back(tracedArrayPassJson(config, pattern, ops, wallMs));
      }
    }
  }
  fixture.array.reset();
  for (int k = 0; k < kDeckReplays; ++k) {
    double deck = 0.0, freeze = 0.0;
    timeDeckAndFreeze(config, deck, freeze);
    deckMs.push_back(deck);
    freezeMs.push_back(freeze);
  }
  emit("],\"window\":" + num(window) + ",\"setup\":" +
       Obj()
           .add("setup_ms", numList(setupMs))
           .add("build_ms", numList(buildMs))
           .add("deck_ms", numList(deckMs))
           .add("freeze_ms", numList(freezeMs))
           .str() +
       ",\"peak_rss_mb\":" + num(peakRssMb()));
  if (trace) emitTraced(tracedJson, traceJsonPath);
}

// ---- cell_sweep -------------------------------------------------------------

struct PointResult {
  std::string record;  ///< JSON outputs of the point
  double pointMs = 0.0;
  double lu[3] = {0, 0, 0};  ///< full, numeric refactors, pivot fallbacks
};

core::Cell2TConfig nominalCell() {
  core::Cell2TConfig cfg;
  cfg.fefet.lk = core::fefetMaterial();
  return cfg;
}

/// One Monte Carlo point: perturbed device and access transistor (the
/// same draw order as core::runWriteYield), then write 1, read, write 0,
/// read, hold on a fresh 2T cell.
PointResult runPoint(const core::Cell2TConfig& nominal, std::uint64_t seed) {
  const obs::Span pointSpan("bench.point");
  const std::uint64_t start = threadCpuNanos();
  const core::VariationSpec spec;
  stats::Rng rng(seed);
  core::Cell2TConfig cfg = nominal;
  cfg.fefet = core::perturbDevice(nominal.fefet, spec, rng);
  cfg.accessMos.vt0 = nominal.accessMos.vt0 + rng.normal(0.0, spec.vtSigma);

  PointResult out;
  Obj rec;
  std::unique_ptr<core::Cell2T> cell;
  const std::uint64_t tb = threadCpuNanos();
  try {
    const obs::Span span("core.build");
    cell = std::make_unique<core::Cell2T>(cfg);
  } catch (const Error& e) {
    // A draw outside the nonvolatile regime: a yield loss, not a failure.
    rec.num("built", 0).num("build_ms", cpuMsSince(tb));
    out.record = rec.str();
    out.pointMs = cpuMsSince(start);
    return out;
  }
  rec.num("built", 1).num("build_ms", cpuMsSince(tb));
  rec.num("window", std::abs(cell->onPolarization() - cell->offPolarization()));

  std::vector<std::string> ops;
  const auto runOp = [&](char kind, const char* spanName, auto&& fn) {
    Obj op;
    op.add("k", quote(std::string(1, kind)));
    const double pBefore = cell->polarization();
    const std::uint64_t t0 = threadCpuNanos();
    try {
      core::CellOpResult res;
      {
        const obs::Span span(spanName);
        res = fn();
      }
      op.num("ms", cpuMsSince(t0)).num("ok", 1);
      op.num("bit", res.bitAfter ? 1 : 0).num("p", res.finalPolarization);
      if (kind == 'W') op.num("e", res.totalEnergy);
      if (kind == 'R') {
        op.num("i", res.readCurrent)
            .num("d", std::abs(res.finalPolarization - pBefore));
      }
    } catch (const std::exception& e) {
      op.num("ms", cpuMsSince(t0)).num("ok", 0).add("error", quote(e.what()));
    }
    ops.push_back(op.str());
  };
  runOp('W', "bench.op.write", [&] { return cell->write(true, kCellPulse); });
  runOp('R', "bench.op.read", [&] { return cell->read(); });
  runOp('W', "bench.op.write", [&] { return cell->write(false, kCellPulse); });
  runOp('R', "bench.op.read", [&] { return cell->read(); });
  runOp('H', "bench.op.hold", [&] { return cell->hold(kHoldTime); });

  const auto& lu = cell->simulator().newton().sparseFactorizer();
  out.lu[0] = static_cast<double>(lu.fullFactorizations());
  out.lu[1] = static_cast<double>(lu.numericRefactorizations());
  out.lu[2] = static_cast<double>(lu.pivotFallbacks());
  rec.add("ops", objList(ops));
  out.record = rec.str();
  out.pointMs = cpuMsSince(start);
  return out;
}

struct SweepPass {
  double wallMs = 0.0;
  std::vector<PointResult> points;
};

SweepPass runSweep(const core::Cell2TConfig& nominal,
                   const std::vector<std::uint64_t>& seeds) {
  sim::SweepOptions options;
  options.threads = kSweepWorkers;
  sim::SweepEngine engine(options);
  SweepPass pass;
  const std::uint64_t start = monotonicNanos();
  pass.points = engine.run(
      seeds, [&](std::uint64_t seed, const sim::SweepContext&) {
        return runPoint(nominal, seed);
      });
  pass.wallMs = msSince(start);
  return pass;
}

/// One untraced timed sweep, written out as soon as it ends.
void emitSweepPass(const core::Cell2TConfig& nominal,
                   const std::vector<std::uint64_t>& seeds) {
  obs::Metrics::reset();
  const SweepPass pass = runSweep(nominal, seeds);
  std::vector<std::string> records;
  std::vector<double> pointMs;
  double lu[3] = {0, 0, 0};
  for (const auto& p : pass.points) {
    records.push_back(p.record);
    pointMs.push_back(p.pointMs);
    for (int k = 0; k < 3; ++k) lu[k] += p.lu[k];
  }
  emit(Obj()
           .num("wall_ms", pass.wallMs)
           .add("points", objList(records))
           .add("point_ms", numList(pointMs))
           .add("counters", countersJson())
           .add("solver", Obj()
                              .num("lu.full_factorizations", lu[0])
                              .num("lu.numeric_refactors", lu[1])
                              .num("lu.pivot_fallbacks", lu[2])
                              .str())
           .str());
}

void runCellSweep(std::istream& opsIn, int builds, int passes, bool trace,
                  const std::string& traceJsonPath) {
  std::vector<std::uint64_t> seeds;
  std::string kind;
  while (opsIn >> kind) {
    std::uint64_t seed = 0;
    if (kind != "P" || !(opsIn >> seed)) {
      throw std::runtime_error("ops file: expected 'P seed' lines");
    }
    seeds.push_back(seed);
  }

  // Fixture: the calibrated nominal cell config and one warm-up sweep of a
  // point per worker (pool start, first cell build).  Every build is timed;
  // every (builds / passes)-th one runs the timed sweep.
  const std::vector<std::uint64_t> warmupSeeds = {0x5eed0001, 0x5eed0002};
  std::vector<double> setupMs, buildMs;
  core::Cell2TConfig nominal;
  int passesRun = 0;
  emit("{\"workload\":\"cell_sweep\",\"passes\":[");
  for (int b = 0; b < builds; ++b) {
    const std::uint64_t t0 = processCpuNanos();
    {
      const obs::Span span("bench.setup.build");
      nominal = nominalCell();
    }
    buildMs.push_back(msSince(t0, processCpuNanos));
    {
      const obs::Span span("bench.setup.warmup");
      runSweep(nominal, warmupSeeds);
    }
    setupMs.push_back(msSince(t0, processCpuNanos));
    if (passAfterBuild(b, builds, passes)) {
      if (passesRun++ > 0) emit(",");
      emitSweepPass(nominal, seeds);
    }
  }
  emit("],\"workers\":" + num(kSweepWorkers) + ",\"setup\":" +
       Obj()
           .add("setup_ms", numList(setupMs))
           .add("build_ms", numList(buildMs))
           .str() +
       ",\"peak_rss_mb\":" + num(peakRssMb()));
  if (!trace) return;

  // Tracing every Newton iteration of the whole sweep would need rings of
  // millions of events, so the traced replay covers the first kTracedPoints
  // points, each traced sweep paired with an untraced sweep of the same
  // points for the overhead.
  const std::vector<std::uint64_t> subset(
      seeds.begin(),
      seeds.begin() + static_cast<std::ptrdiff_t>(
                          std::min(seeds.size(), kTracedPoints)));
  const double share = static_cast<double>(subset.size()) /
                       static_cast<double>(seeds.size()) / kSweepWorkers;
  const std::size_t ring = traceRingEvents(share, subset.size() * 8);
  std::vector<std::string> traced;
  for (int p = 0; p < kTracedReplays; ++p) {
    const double untracedMs = runSweep(nominal, subset).wallMs;
    obs::Trace::enable(ring);  // discards the previous sweep's events
    const std::uint64_t phaseStart = monotonicNanos();
    const SweepPass pass = runSweep(nominal, subset);
    obs::Trace::disable();
    traced.push_back(Obj()
                         .num("wall_ms", pass.wallMs)
                         .num("untraced_wall_ms", untracedMs)
                         .add("tree", traceTreeJson(phaseStart))
                         .str());
  }
  emitTraced(traced, traceJsonPath);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, opsPath, traceJsonPath;
  int builds = 5;
  int passes = 1;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = next();
      } else if (arg == "--ops") {
        opsPath = next();
      } else if (arg == "--builds") {
        builds = std::stoi(next());
      } else if (arg == "--passes") {
        passes = std::stoi(next());
      } else if (arg == "--trace") {
        trace = true;
      } else if (arg == "--trace-json") {
        traceJsonPath = next();
      } else {
        throw std::runtime_error("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
      return 2;
    }
  }
  if (opsPath.empty() || passes < 1 || builds < passes ||
      (workload != "array8" && workload != "array32" &&
       workload != "cell_sweep")) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload array8|array32|"
                 "cell_sweep --ops FILE [--builds N] [--passes N] "
                 "[--trace] [--trace-json FILE]\n");
    return 2;
  }
  std::ifstream opsIn(opsPath);
  if (!opsIn) {
    std::fprintf(stderr, "perfbench_driver: cannot read %s\n", opsPath.c_str());
    return 2;
  }
  try {
    // The result object is streamed; a failure part-way exits nonzero.
    if (workload == "cell_sweep") {
      runCellSweep(opsIn, builds, passes, trace, traceJsonPath);
    } else {
      runArrayWorkload(workload, opsIn, builds, passes, trace, traceJsonPath);
    }
    emit(",\"provenance\":" +
         Obj()
             .add("build_type", quote(PERFBENCH_BUILD_TYPE))
             .num("nproc", std::thread::hardware_concurrency())
             .str() +
         "}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
