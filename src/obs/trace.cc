#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/strings.h"

namespace fefet::obs {

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// One thread's bounded ring.  Only the owning thread writes (head is
/// advanced without atomics); readers synchronize through quiescence
/// (see the contract in trace.h) plus the collector mutex.
struct ThreadRing {
  int thread = 0;
  std::vector<TraceEvent> slots;
  // head/dropped are written only by the owning thread but read by
  // Trace::dropped() while spans may still be recording, so they are atomics
  // with relaxed ordering (slot *contents* are still only read after
  // quiescence — see the contract in trace.h).
  std::atomic<std::uint64_t> head{0};     ///< total events ever recorded
  std::atomic<std::uint64_t> dropped{0};  ///< head minus retained
};

/// Collector: owns every thread's ring so events survive thread exit
/// (sweep workers die after each run; their spans must not).
struct Collector {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::size_t capacity = 1 << 13;  ///< per-thread, power of two
  std::uint64_t generation = 0;    ///< bumped by enable()/clear()
  std::map<int, std::string> threadNames;  ///< id → name, survives clear()
};

Collector& collector() {
  static Collector* c = new Collector();  // never destroyed: threads may
  return *c;                              // record until process exit
}

std::atomic<std::uint64_t> g_generation{0};

thread_local ThreadRing* t_ring = nullptr;
thread_local std::uint64_t t_generation = ~std::uint64_t{0};

ThreadRing* acquireRing() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  auto ring = std::make_unique<ThreadRing>();
  ring->thread = currentThreadId();
  ring->slots.resize(c.capacity);
  t_ring = ring.get();
  t_generation = c.generation;
  c.rings.push_back(std::move(ring));
  return t_ring;
}

/// Chronological copy of one ring's retained events.
void appendRingEvents(const ThreadRing& ring, std::vector<TraceEvent>* out) {
  const std::size_t cap = ring.slots.size();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t retained = std::min<std::uint64_t>(head, cap);
  const std::uint64_t first = head - retained;
  for (std::uint64_t i = first; i < head; ++i) {
    out->push_back(ring.slots[static_cast<std::size_t>(i & (cap - 1))]);
  }
}

}  // namespace

std::atomic<bool> Trace::enabled_{false};

void Trace::enable(std::size_t eventsPerThread) {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  c.capacity = roundUpPow2(std::max<std::size_t>(eventsPerThread, 2));
  c.rings.clear();
  ++c.generation;
  g_generation.store(c.generation, std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

void Trace::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Trace::clear() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  c.rings.clear();
  ++c.generation;
  g_generation.store(c.generation, std::memory_order_release);
}

std::string Trace::enableFromEnv() {
  const char* path = std::getenv("FEFET_TRACE");
  if (path == nullptr || path[0] == '\0') return {};
  std::size_t capacity = 1 << 13;
  if (const char* n = std::getenv("FEFET_TRACE_EVENTS")) {
    const long v = std::atol(n);
    if (v > 0) capacity = static_cast<std::size_t>(v);
  }
  enable(capacity);
  return path;
}

void Trace::record(const char* name, std::uint64_t startNs,
                   std::uint64_t durNs, std::uint64_t arg, bool hasArg) {
  if (!enabled()) return;
  ThreadRing* ring = t_ring;
  if (ring == nullptr ||
      t_generation != g_generation.load(std::memory_order_acquire)) {
    ring = acquireRing();
  }
  const std::size_t cap = ring->slots.size();
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  TraceEvent& slot =
      ring->slots[static_cast<std::size_t>(head & (cap - 1))];
  slot.name = name;
  slot.startNs = startNs;
  slot.durNs = durNs;
  slot.thread = ring->thread;
  slot.arg = arg;
  slot.hasArg = hasArg;
  ring->head.store(head + 1, std::memory_order_relaxed);
  if (head + 1 > cap) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> Trace::events() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  std::vector<TraceEvent> all;
  for (const auto& ring : c.rings) appendRingEvents(*ring, &all);
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.startNs < b.startNs;
                   });
  return all;
}

std::uint64_t Trace::dropped() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : c.rings) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void Trace::setCurrentThreadName(const std::string& name) {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  c.threadNames[currentThreadId()] = name;
}

std::vector<std::pair<int, std::string>> Trace::threadNames() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> guard(c.mutex);
  return {c.threadNames.begin(), c.threadNames.end()};
}

std::string Trace::toChromeJson() {
  const std::vector<TraceEvent> all = events();
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[96];
  bool first = true;
  // Perfetto/chrome "M" metadata records name the tracks: without these a
  // trace of a multi-threaded run is a wall of bare tids.
  for (const auto& [tid, name] : threadNames()) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"",
                  tid);
    out += buf;
    out += strings::jsonEscape(name) + "\"}}";
  }
  for (const TraceEvent& e : all) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + strings::jsonEscape(e.name) +
           "\",\"cat\":\"fefet\",\"ph\":\"X\",\"pid\":1";
    std::snprintf(buf, sizeof(buf), ",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  e.thread, static_cast<double>(e.startNs) / 1e3,
                  static_cast<double>(e.durNs) / 1e3);
    out += buf;
    if (e.hasArg) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"i\":%llu}",
                    static_cast<unsigned long long>(e.arg));
      out += buf;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

bool Trace::writeChromeJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = toChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace fefet::obs
