#include "support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "support/contracts.hpp"

namespace neatbound {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  NEATBOUND_EXPECTS(!headers_.empty(), "table needs at least one column");
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  NEATBOUND_EXPECTS(cells.size() == headers_.size(),
                    "row width must match header width");
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      // Right-align all cells; headers and text read fine either way and
      // numeric columns line up on the decimal side.
      const std::size_t pad = widths[c] - row[c].size();
      for (std::size_t i = 0; i < pad; ++i) os << ' ';
      os << row[c];
    }
    os << " |\n";
  };
  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    for (std::size_t i = 0; i < widths[c] + 2; ++i) os << '-';
    os << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

namespace {
std::string format_with(const char* spec, double v) {
  // Sized from snprintf's count: %f of a large value runs to hundreds of
  // digits.
  const int n = std::snprintf(nullptr, 0, spec, v);
  std::string out(static_cast<std::size_t>(std::max(n, 0)), '\0');
  std::snprintf(out.data(), out.size() + 1, spec, v);
  return out;
}
}  // namespace

std::string format_general(double v, int digits) {
  char spec[16];
  std::snprintf(spec, sizeof(spec), "%%.%dg", digits);
  return format_with(spec, v);
}

std::string format_fixed(double v, int digits) {
  char spec[16];
  std::snprintf(spec, sizeof(spec), "%%.%df", digits);
  return format_with(spec, v);
}

std::string format_sci(double v, int digits) {
  char spec[16];
  std::snprintf(spec, sizeof(spec), "%%.%de", digits);
  return format_with(spec, v);
}

}  // namespace neatbound
