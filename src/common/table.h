// table.h — console table writer used by the benchmark harnesses to print
// the paper's tables.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace fefet {

/// A simple column-aligned text table.  Build with addRow(); print() pads
/// every column to its widest cell and draws a header rule.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a row; must have the same arity as the header.
  void addRow(std::vector<std::string> cells);

  /// Render to a stream.
  void print(std::ostream& os) const;

  /// Render to a string (convenience for tests).
  std::string toString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fefet
