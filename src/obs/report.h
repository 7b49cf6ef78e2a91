// report.h — unified end-of-run report: one JSON document merging the
// final metrics snapshot with bench-specific fields (sweep outcome tally,
// wall clocks, result CRCs, …).
//
// Every bench emits exactly one of these through the shared
// bench/bench_util.h helper (TelemetrySession), replacing the ad-hoc
// per-bench PERF assembly that used to hand-roll its own JSON.  The
// document shape:
//
//   {"bench":"<name>", <extra fields in insertion order>,
//    "metrics":{"counters":{...},"histograms":{...}}}
//
// Extra fields are added typed (number/string/bool/raw) so the report
// builder owns all escaping and formatting.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace fefet::obs {

class RunReport {
 public:
  explicit RunReport(std::string benchName)
      : benchName_(std::move(benchName)) {}

  const std::string& benchName() const { return benchName_; }

  void addNumber(const std::string& key, double value);
  void addCount(const std::string& key, std::uint64_t value);
  void addString(const std::string& key, const std::string& value);
  void addBool(const std::string& key, bool value);

  /// Render the document around `metrics` (pass Metrics::snapshot() for
  /// the live registry).
  std::string toJson(const MetricsSnapshot& metrics) const;

  /// toJson() written to `path`; false on I/O failure.
  bool writeJson(const std::string& path,
                 const MetricsSnapshot& metrics) const;

 private:
  std::string benchName_;
  std::vector<std::pair<std::string, std::string>> fields_;  ///< key, JSON
};

}  // namespace fefet::obs
