#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "common/clock.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace fefet::obs {
namespace {

// ---------------------------------------------------------------------------
// Dump format (little-endian, packed by hand — no struct padding games):
//
//   DumpHeader
//   rings × [ RingHeader, capacity × FlightRecord (raw 32-byte slots) ]
//   u64 metricsJsonLen, metricsJsonLen × bytes
//
// Every field the handler writes is either preallocated at enable() or a
// plain integer formatted into a fixed header struct — the crash path
// performs no allocation, locking, or formatting beyond memcpy into the
// header.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'F', 'E', 'F', 'B', 'B', 'X', '1', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kReasonBytes = 96;

struct DumpHeader {
  char magic[8];
  std::uint32_t version;
  std::int32_t signal;          // fatal signal number, 0 for explicit dumps
  std::uint64_t dumpTimeNs;
  std::uint32_t rings;
  std::uint32_t lostThreads;    // threads that found all kMaxRings claimed
  char reason[kReasonBytes];    // NUL-padded
};
static_assert(sizeof(DumpHeader) == 8 + 4 + 4 + 8 + 4 + 4 + kReasonBytes);

struct RingHeader {
  std::uint32_t thread;     // currentThreadId() of the owning thread
  std::uint32_t capacity;   // slots in this ring (power of two)
  std::uint64_t head;       // total records ever written to this ring
  std::uint64_t dropped;    // records overwritten by wraps (= max(0, head-cap))
};
static_assert(sizeof(RingHeader) == 24);

/// One per-thread ring.  `head` counts total appends; the live window is
/// slots [head - min(head, capacity), head).  Records are written with
/// plain stores between two `seq` bookends (seq is stored last), so the
/// parser can detect the one record a crashing peer was mid-write on.
struct Ring {
  std::atomic<std::uint64_t> head{0};
  std::uint32_t thread = 0;
  FlightRecord* slots = nullptr;  // points into Global::storage
};

struct Global {
  std::atomic<int> ringCount{0};
  std::atomic<std::uint32_t> lostThreads{0};
  Ring rings[FlightRecorder::kMaxRings];
  FlightRecord* storage = nullptr;   // kMaxRings × capacity slots
  std::size_t capacity = 0;          // per-ring, power of two
  int fd = -1;                       // pre-opened dump fd
  std::atomic<bool> dumped{false};   // first dump wins (crash vs crash)

  // Bumped on every enable(); threads compare their cached generation
  // before trusting a cached ring pointer (same scheme as obs/trace.cc).
  std::atomic<std::uint64_t> generation{0};

  // Double-buffered preformatted metrics JSON.  updateMetricsBuffer()
  // writes the inactive buffer then flips `activeMetrics`; the handler
  // reads whichever buffer the index names.  A refresh racing the crash
  // leaves the previously active buffer intact.
  char* metricsBuf[2] = {nullptr, nullptr};
  std::size_t metricsLen[2] = {0, 0};
  std::size_t metricsCap = 0;
  std::atomic<int> activeMetrics{-1};  // -1 = no snapshot captured yet
  std::mutex metricsRefreshMutex;      // serializes updateMetricsBuffer()

  std::atomic<std::uint64_t> lastExplicitDumpNs{0};  // dumpNow() rate limit
};

// Leaked on purpose: threads may record during static destruction, and
// the crash handler must be able to run at any point in the process
// lifetime (same pattern as obs/trace.cc's collector).
Global* g_flight = nullptr;

thread_local Ring* t_ring = nullptr;
thread_local std::uint64_t t_generation = 0;

std::size_t roundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Fully write `len` bytes, retrying short writes and EINTR.  Only
/// async-signal-safe calls.
bool writeAll(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// The dump writer shared by the crash handler and dumpNow().  Must stay
/// async-signal-safe: pre-opened fd, preallocated buffers, no locks, no
/// allocation, no stdio.
void writeDump(int signalNumber, const char* reason) {
  Global* g = g_flight;
  if (g == nullptr || g->fd < 0) return;

  DumpHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.signal = signalNumber;
  header.dumpTimeNs = monotonicNanos();
  header.rings =
      static_cast<std::uint32_t>(g->ringCount.load(std::memory_order_acquire));
  if (header.rings > FlightRecorder::kMaxRings) {
    header.rings = FlightRecorder::kMaxRings;
  }
  header.lostThreads = g->lostThreads.load(std::memory_order_relaxed);
  std::memset(header.reason, 0, sizeof(header.reason));
  if (reason != nullptr) {
    std::size_t n = 0;
    while (n + 1 < kReasonBytes && reason[n] != '\0') {
      header.reason[n] = reason[n];
      ++n;
    }
  }

  // Rewrite from the start so repeated explicit dumps (or an explicit
  // dump followed by a crash) leave exactly one coherent file.
  if (::lseek(g->fd, 0, SEEK_SET) < 0) return;
  if (!writeAll(g->fd, &header, sizeof(header))) return;

  for (std::uint32_t i = 0; i < header.rings; ++i) {
    Ring& ring = g->rings[i];
    RingHeader rh;
    rh.thread = ring.thread;
    rh.capacity = static_cast<std::uint32_t>(g->capacity);
    rh.head = ring.head.load(std::memory_order_relaxed);
    rh.dropped = rh.head > g->capacity ? rh.head - g->capacity : 0;
    if (!writeAll(g->fd, &rh, sizeof(rh))) return;
    // Raw slots, torn records and all — the parser's seq bookend check
    // sorts them out.  Peers still running keep writing while we dump;
    // that is inherent to crash dumps and exactly what the torn check
    // exists for.
    if (!writeAll(g->fd, ring.slots, g->capacity * sizeof(FlightRecord))) {
      return;
    }
  }

  int active = g->activeMetrics.load(std::memory_order_acquire);
  std::uint64_t metricsLen = active >= 0 ? g->metricsLen[active] : 0;
  if (!writeAll(g->fd, &metricsLen, sizeof(metricsLen))) return;
  if (metricsLen > 0 &&
      !writeAll(g->fd, g->metricsBuf[active], metricsLen)) {
    return;
  }

  off_t end = ::lseek(g->fd, 0, SEEK_CUR);
  if (end >= 0) {
    // Truncate leftovers from a previous, larger dump of the same file.
    (void)::ftruncate(g->fd, end);
  }
  (void)::fsync(g->fd);
}

void crashHandler(int sig) {
  Global* g = g_flight;
  if (g != nullptr &&
      !g->dumped.exchange(true, std::memory_order_acq_rel)) {
    writeDump(sig, nullptr);
  }
  // Handlers were installed with SA_RESETHAND: re-raising runs the
  // default action so the process still dies with the right WTERMSIG
  // (tests and supervisors key off it).
  ::raise(sig);
}

void installCrashHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &crashHandler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS}) {
    (void)::sigaction(sig, &sa, nullptr);
  }
}

/// NumericalError observer (see common/error.h): leaves a ring event and
/// writes a (rate-limited) dump, so the evidence survives even when a
/// retry ladder swallows the exception.
void onNumericalError(const SolverDiagnostics* diag) {
  if (!FlightRecorder::enabled()) return;
  FlightRecorder::record(FlightEvent::kNumericalError,
                         diag != nullptr ? diag->finalResidualNorm : 0.0);
  FlightRecorder::dumpNow("NumericalError");
}

Ring* claimRing() {
  Global* g = g_flight;
  if (g == nullptr) return nullptr;
  int index = g->ringCount.fetch_add(1, std::memory_order_acq_rel);
  if (index >= FlightRecorder::kMaxRings) {
    g->ringCount.store(FlightRecorder::kMaxRings, std::memory_order_release);
    g->lostThreads.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Ring& ring = g->rings[index];
  ring.thread = static_cast<std::uint32_t>(currentThreadId());
  ring.slots = g->storage + static_cast<std::size_t>(index) * g->capacity;
  return &ring;
}

}  // namespace

std::atomic<bool> FlightRecorder::enabled_{false};

const char* flightEventName(FlightEvent event) {
  switch (event) {
    case FlightEvent::kNone: return "none";
    case FlightEvent::kSolveStart: return "solve_start";
    case FlightEvent::kSolveConverged: return "solve_converged";
    case FlightEvent::kSolveDiverged: return "solve_diverged";
    case FlightEvent::kSolveStagnated: return "solve_stagnated";
    case FlightEvent::kGminRescue: return "gmin_rescue";
    case FlightEvent::kNewtonResidual: return "newton_residual";
    case FlightEvent::kGminEscalation: return "gmin_escalation";
    case FlightEvent::kDtCut: return "dt_cut";
    case FlightEvent::kCollapse: return "collapse";
    case FlightEvent::kExpand: return "expand";
    case FlightEvent::kNumericalError: return "numerical_error";
  }
  return "?";
}

void FlightRecorder::enable(const std::string& path,
                            std::size_t eventsPerThread) {
  FEFET_REQUIRE(eventsPerThread > 0, "flight recorder ring capacity");
  disable();  // quiesce contract: no in-flight record() calls

  if (g_flight == nullptr) g_flight = new Global();
  Global* g = g_flight;

  if (g->fd >= 0) ::close(g->fd);
  g->fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  if (g->fd < 0) {
    throw Error("flight recorder: cannot open '" + path +
                "': " + std::strerror(errno));
  }

  std::size_t capacity = roundUpPow2(eventsPerThread);
  if (g->storage == nullptr || g->capacity != capacity) {
    delete[] g->storage;
    g->storage = new FlightRecord[static_cast<std::size_t>(kMaxRings) *
                                  capacity]();
    g->capacity = capacity;
  } else {
    std::fill_n(g->storage, static_cast<std::size_t>(kMaxRings) * capacity,
                FlightRecord{});
  }
  for (Ring& ring : g->rings) {
    ring.head.store(0, std::memory_order_relaxed);
    ring.thread = 0;
    ring.slots = nullptr;
  }
  g->ringCount.store(0, std::memory_order_release);
  g->lostThreads.store(0, std::memory_order_relaxed);
  g->generation.fetch_add(1, std::memory_order_acq_rel);
  g->dumped.store(false, std::memory_order_release);
  g->activeMetrics.store(-1, std::memory_order_release);
  if (g->metricsCap == 0) {
    g->metricsCap = 1 << 20;  // 1 MiB per buffer; snapshots are ~10 KiB
    g->metricsBuf[0] = new char[g->metricsCap];
    g->metricsBuf[1] = new char[g->metricsCap];
  }
  g->lastExplicitDumpNs.store(0, std::memory_order_relaxed);

  installCrashHandlers();
  setNumericalErrorHook(&onNumericalError);
  enabled_.store(true, std::memory_order_release);
}

std::string FlightRecorder::enableFromEnv() {
  const char* path = std::getenv("FEFET_BLACKBOX");
  if (path == nullptr || path[0] == '\0') return {};
  std::size_t events = 2048;
  if (const char* raw = std::getenv("FEFET_BLACKBOX_EVENTS")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(raw, &end, 10);
    if (end != raw && parsed > 0) events = parsed;
  }
  enable(path, events);
  return path;
}

void FlightRecorder::disable() {
  enabled_.store(false, std::memory_order_release);
}

void FlightRecorder::record(FlightEvent type, double a, std::uint64_t b) {
  if (!enabled()) return;
  Global* g = g_flight;
  Ring* ring = t_ring;
  std::uint64_t generation = g->generation.load(std::memory_order_acquire);
  if (ring == nullptr || t_generation != generation) {
    // First record on this thread, or enable() started a new epoch since
    // this thread cached its ring — (re)claim.
    ring = t_ring = claimRing();
    t_generation = generation;
    if (ring == nullptr) return;
  }

  std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  FlightRecord& slot = ring->slots[head & (g->capacity - 1)];
  // seq is the torn-record bookend: the parser requires
  // seq == head position + 1 (never 0).  Write payload first, seq last;
  // a crash dumping mid-write sees a stale seq and discards the slot.
  slot.seq = 0;
  slot.timeNs = monotonicNanos();
  slot.type = static_cast<std::uint16_t>(type);
  slot.thread = static_cast<std::uint16_t>(ring->thread);
  slot.a = a;
  slot.b = b;
  slot.seq = static_cast<std::uint32_t>(head + 1);
  ring->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::updateMetricsBuffer() {
  Global* g = g_flight;
  if (g == nullptr || g->metricsCap == 0) return;
  std::string json = Metrics::snapshot().toJson();
  if (json.size() > g->metricsCap) json.resize(g->metricsCap);
  std::lock_guard<std::mutex> lock(g->metricsRefreshMutex);
  int active = g->activeMetrics.load(std::memory_order_acquire);
  int next = active == 0 ? 1 : 0;
  std::memcpy(g->metricsBuf[next], json.data(), json.size());
  g->metricsLen[next] = json.size();
  g->activeMetrics.store(next, std::memory_order_release);
}

bool FlightRecorder::dumpNow(const char* reason) {
  Global* g = g_flight;
  if (g == nullptr || g->fd < 0) return false;
  // Rate limit: a gmin-continuation retry ladder can construct dozens of
  // NumericalErrors in a burst; the last dump inside the window wins
  // little over the first, so keep the first and skip the rest.
  std::uint64_t now = monotonicNanos();
  std::uint64_t last = g->lastExplicitDumpNs.load(std::memory_order_relaxed);
  if (last != 0 && now - last < 100'000'000ULL) return true;
  if (!g->lastExplicitDumpNs.compare_exchange_strong(
          last, now, std::memory_order_acq_rel)) {
    return true;  // a concurrent dumpNow() won the window
  }
  updateMetricsBuffer();
  writeDump(0, reason);
  return true;
}

bool readBlackboxDump(const std::string& path, BlackboxDump* out,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }

  DumpHeader header;
  if (!in.read(reinterpret_cast<char*>(&header), sizeof(header))) {
    if (error != nullptr) *error = "truncated header";
    return false;
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    if (error != nullptr) *error = "bad magic (not a black-box dump)";
    return false;
  }
  if (header.version != kVersion) {
    if (error != nullptr) {
      *error = "unsupported dump version " + std::to_string(header.version);
    }
    return false;
  }
  if (header.rings > FlightRecorder::kMaxRings) {
    if (error != nullptr) {
      *error = "implausible ring count " + std::to_string(header.rings);
    }
    return false;
  }

  out->version = header.version;
  out->signal = header.signal;
  out->dumpTimeNs = header.dumpTimeNs;
  out->reason.assign(header.reason,
                     strnlen(header.reason, sizeof(header.reason)));
  out->rings = static_cast<int>(header.rings);
  out->dropped = 0;
  out->tornRecords = 0;
  out->records.clear();
  out->metricsJson.clear();

  for (std::uint32_t r = 0; r < header.rings; ++r) {
    RingHeader rh;
    if (!in.read(reinterpret_cast<char*>(&rh), sizeof(rh))) {
      if (error != nullptr) {
        *error = "truncated ring header " + std::to_string(r);
      }
      return false;
    }
    if (rh.capacity == 0 || rh.capacity > (1u << 24)) {
      if (error != nullptr) {
        *error = "implausible ring capacity " + std::to_string(rh.capacity);
      }
      return false;
    }
    std::vector<FlightRecord> slots(rh.capacity);
    if (!in.read(reinterpret_cast<char*>(slots.data()),
                 static_cast<std::streamsize>(rh.capacity *
                                              sizeof(FlightRecord)))) {
      if (error != nullptr) *error = "truncated ring " + std::to_string(r);
      return false;
    }
    out->dropped += rh.dropped;

    std::uint64_t first = rh.head > rh.capacity ? rh.head - rh.capacity : 0;
    for (std::uint64_t pos = first; pos < rh.head; ++pos) {
      const FlightRecord& rec = slots[pos & (rh.capacity - 1)];
      // Torn check: a cleanly written slot carries seq == pos + 1.  A
      // mismatch means the owning thread was mid-write (or the slot was
      // being rewritten by a wrap) when the dump snapshotted it.
      if (rec.seq != static_cast<std::uint32_t>(pos + 1)) {
        ++out->tornRecords;
        continue;
      }
      out->records.push_back(rec);
    }
  }

  std::uint64_t metricsLen = 0;
  if (in.read(reinterpret_cast<char*>(&metricsLen), sizeof(metricsLen)) &&
      metricsLen > 0) {
    out->metricsJson.resize(metricsLen);
    if (!in.read(out->metricsJson.data(),
                 static_cast<std::streamsize>(metricsLen))) {
      // A dump torn inside the metrics section still has usable rings.
      out->metricsJson.clear();
    }
  }

  std::sort(out->records.begin(), out->records.end(),
            [](const FlightRecord& lhs, const FlightRecord& rhs) {
              if (lhs.timeNs != rhs.timeNs) return lhs.timeNs < rhs.timeNs;
              if (lhs.thread != rhs.thread) return lhs.thread < rhs.thread;
              return lhs.seq < rhs.seq;
            });
  return true;
}

}  // namespace fefet::obs
