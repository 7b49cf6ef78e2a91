// strings.h — formatting helpers: engineering/SI notation for the benchmark
// tables ("0.68 V", "550 ps", "4.82 pJ") and small string utilities.
#pragma once

#include <string>
#include <vector>

namespace fefet::strings {

/// Format `value` with an SI prefix and the given unit, e.g.
/// siFormat(5.5e-10, "s") -> "550 ps"; siFormat(0.68, "V") -> "680 mV".
/// `digits` controls significant digits of the mantissa.
std::string siFormat(double value, const std::string& unit, int digits = 3);

/// Fixed-precision decimal, e.g. fixed(0.6789, 2) -> "0.68".
std::string fixedFormat(double value, int decimals);

/// printf-style %g with the given significant digits.
std::string generalFormat(double value, int digits = 6);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// Left/right pad to a width with spaces.
std::string padLeft(const std::string& s, std::size_t width);
std::string padRight(const std::string& s, std::size_t width);

/// Escape a string for embedding inside JSON double quotes: quotes,
/// backslashes and control characters become \", \\, \n, \uXXXX, ….
/// Shared by the metrics snapshot serializer, the trace exporter, the run
/// report (obs/) and the sweep journal, so every JSON emitter escapes
/// identically.
std::string jsonEscape(const std::string& s);

/// JSON-safe number rendering: round-trippable %.17g for finite values;
/// NaN and infinities (not representable in JSON) render as 0 with the
/// sign preserved for -inf.
std::string jsonNumber(double value);

}  // namespace fefet::strings
