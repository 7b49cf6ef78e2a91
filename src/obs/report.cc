#include "obs/report.h"

#include <cstdio>

#include "common/strings.h"

namespace fefet::obs {

void RunReport::addNumber(const std::string& key, double value) {
  fields_.emplace_back(key, strings::jsonNumber(value));
}

void RunReport::addCount(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void RunReport::addString(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, '"' + strings::jsonEscape(value) + '"');
}

void RunReport::addBool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

std::string RunReport::toJson(const MetricsSnapshot& metrics) const {
  std::string out =
      "{\"bench\":\"" + strings::jsonEscape(benchName_) + '"';
  for (const auto& [key, value] : fields_) {
    out += ",\"" + strings::jsonEscape(key) + "\":" + value;
  }
  out += ",\"metrics\":" + metrics.toJson() + '}';
  return out;
}

bool RunReport::writeJson(const std::string& path,
                          const MetricsSnapshot& metrics) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = toJson(metrics);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace fefet::obs
