#include "common/strings.h"

#include <cmath>
#include <cstdio>

namespace fefet::strings {

std::string siFormat(double value, const std::string& unit, int digits) {
  static const struct {
    double scale;
    const char* prefix;
  } kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
      {1e-18, "a"},
  };
  if (value == 0.0) return "0 " + unit;
  const double mag = std::abs(value);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale * 0.9995) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*g %s%s", digits, value / p.scale,
                    p.prefix, unit.c_str());
      return buf;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e %s", digits, value, unit.c_str());
  return buf;
}

std::string fixedFormat(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string generalFormat(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += separator;
    out += parts[i];
  }
  return out;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double value) {
  if (std::isnan(value)) return "0";
  if (std::isinf(value)) return value > 0 ? "0" : "-0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string padRight(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace fefet::strings
