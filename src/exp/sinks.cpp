#include "exp/sinks.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "support/contracts.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"

namespace neatbound::exp {

// --- TableSink -------------------------------------------------------------

// neatbound-analyze: allow(contract-coverage) — total by design: an
// already-open section is flushed first, and any name/headers pair is a
// valid section; there is no precondition to assert.
void TableSink::begin_section(const std::string& name,
                              const std::vector<std::string>& headers) {
  flush_section();
  section_ = name;
  table_.emplace(headers);
}

void TableSink::add_row(const std::vector<std::string>& cells) {
  NEATBOUND_EXPECTS(table_.has_value(), "add_row before begin_section");
  table_->add_row(cells);
}

void TableSink::flush_section() {
  if (!table_.has_value()) return;
  if (!section_.empty()) os_ << "\n## " << section_ << '\n';
  table_->print(os_);
  table_.reset();
}

void TableSink::finish() { flush_section(); }

// --- CsvSink ---------------------------------------------------------------

CsvSink::CsvSink(const std::string& path) : out_(path), path_(path) {
  if (!out_) {
    throw std::runtime_error("CsvSink: cannot open " + path);
  }
}

void CsvSink::begin_section(const std::string& name,
                            const std::vector<std::string>& headers) {
  NEATBOUND_EXPECTS(!headers.empty(), "CSV section needs at least one column");
  section_ = name;
  const bool want_section_column = section_column_ || !name.empty();
  if (!header_written_ || headers != headers_ ||
      want_section_column != section_column_) {
    headers_ = headers;
    section_column_ = want_section_column;
    std::vector<std::string> row;
    if (section_column_) row.push_back("section");
    row.insert(row.end(), headers.begin(), headers.end());
    out_ << csv_format_row(row) << '\n';
    header_written_ = true;
  }
}

void CsvSink::add_row(const std::vector<std::string>& cells) {
  NEATBOUND_EXPECTS(header_written_, "add_row before begin_section");
  NEATBOUND_EXPECTS(cells.size() == headers_.size(),
                    "CSV row width must match section header");
  std::vector<std::string> row;
  if (section_column_) row.push_back(section_);
  row.insert(row.end(), cells.begin(), cells.end());
  out_ << csv_format_row(row) << '\n';
}

// neatbound-analyze: allow(contract-coverage) — the postcondition (all
// rows reached the file) is checked by the typed runtime_error throw on
// stream failure, which callers rely on catching.
void CsvSink::finish() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("CsvSink: write failed for " + path_);
  }
}

// --- JsonSink --------------------------------------------------------------

namespace {
std::string json_string(const std::string& text) {
  return '"' + support::json_escape(text) + '"';
}

std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items[i]);
  }
  out += ']';
  return out;
}
}  // namespace

JsonSink::JsonSink(std::string path, std::string bench_name)
    : path_(std::move(path)), bench_name_(std::move(bench_name)) {}

void JsonSink::begin_section(const std::string& name,
                             const std::vector<std::string>& headers) {
  sections_.push_back({name, headers, {}});
}

void JsonSink::add_row(const std::vector<std::string>& cells) {
  NEATBOUND_EXPECTS(!sections_.empty(), "add_row before begin_section");
  NEATBOUND_EXPECTS(cells.size() == sections_.back().headers.size(),
                    "JSON row width must match section header");
  sections_.back().rows.push_back(cells);
}

void JsonSink::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, json_string(value));
}

void JsonSink::set_meta_number(const std::string& key, double value) {
  char buf[64];
  const int written = std::snprintf(buf, sizeof buf, "%.12g", value);
  NEATBOUND_ENSURES(written > 0 && written < static_cast<int>(sizeof buf),
                    "formatted metadata number must fit the buffer");
  meta_.emplace_back(key, buf);
}

// neatbound-analyze: allow(contract-coverage) — postcondition (document
// written) is checked by the typed runtime_error throws on open/write
// failure; the JSON shape itself is covered by the sink tests.
void JsonSink::finish() {
  std::ofstream out(path_);
  if (!out) {
    throw std::runtime_error("JsonSink: cannot open " + path_);
  }
  out << "{\n  \"bench\": " << json_string(bench_name_) << ",\n";
  out << "  \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) out << ',';
    out << "\n    " << json_string(meta_[i].first) << ": " << meta_[i].second;
  }
  out << (meta_.empty() ? "" : "\n  ") << "},\n";
  out << "  \"sections\": [";
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const Section& section = sections_[s];
    if (s > 0) out << ',';
    out << "\n    {\n      \"name\": " << json_string(section.name)
        << ",\n      \"headers\": " << json_string_array(section.headers)
        << ",\n      \"rows\": [";
    for (std::size_t r = 0; r < section.rows.size(); ++r) {
      if (r > 0) out << ',';
      out << "\n        " << json_string_array(section.rows[r]);
    }
    out << (section.rows.empty() ? "" : "\n      ") << "]\n    }";
  }
  out << (sections_.empty() ? "" : "\n  ") << "]\n}\n";
  if (!out) {
    throw std::runtime_error("JsonSink: write failed for " + path_);
  }
}

// --- SinkSet ---------------------------------------------------------------

// neatbound-analyze: allow(hot-alloc) — cold setup-time registration;
// it reaches the hot closure only through the text front end's
// name-based call graph (BlockStore::add shares the name `add`).
void SinkSet::add(std::unique_ptr<ResultSink> sink) {
  sinks_.push_back(std::move(sink));
}

void SinkSet::begin_section(const std::string& name,
                            const std::vector<std::string>& headers) {
  for (const auto& sink : sinks_) sink->begin_section(name, headers);
}

void SinkSet::add_row(const std::vector<std::string>& cells) {
  for (const auto& sink : sinks_) sink->add_row(cells);
}

void SinkSet::finish() {
  for (const auto& sink : sinks_) sink->finish();
}

}  // namespace neatbound::exp
