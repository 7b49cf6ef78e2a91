#include "common/table.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace fefet {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  FEFET_REQUIRE(!header_.empty(), "TextTable: empty header");
}

void TextTable::addRow(std::vector<std::string> cells) {
  FEFET_REQUIRE(cells.size() == header_.size(),
                "TextTable: row arity does not match header");
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto printRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "") << strings::padRight(row[c], widths[c]);
    }
    os << '\n';
  };
  printRow(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) printRow(row);
}

std::string TextTable::toString() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace fefet
