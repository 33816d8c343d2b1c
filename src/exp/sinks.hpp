// Pluggable result sinks for the experiment orchestrator.
//
// Bench output is a sequence of *sections* — named tables whose headers
// may differ — and every sink consumes that same stream:
//   * TableSink — the classic fixed-width stdout tables,
//   * CsvSink   — one CSV file, a `section` column first, header row
//                 re-emitted whenever a section changes the schema,
//   * JsonSink  — one machine-readable summary document (sections, rows,
//                 plus free-form metadata like wall-clock seconds and
//                 the `tel_*` work counts cli/counter_parity gates),
//   * SinkSet   — fan-out composite the benches actually hold.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/table.hpp"

namespace neatbound::exp {

/// Consumer of sectioned tabular results.  Calls arrive strictly as
/// begin_section (add_row)* … finish; implementations may buffer.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Starts a new table; `headers` may differ between sections.
  virtual void begin_section(const std::string& name,
                             const std::vector<std::string>& headers) = 0;
  /// Appends one row to the current section (must match its header width).
  virtual void add_row(const std::vector<std::string>& cells) = 0;
  /// Called exactly once after the last row; flushes/writes output.
  virtual void finish() = 0;
};

/// Streams fixed-width tables to an ostream: "## name" then the table,
/// rendered when the section completes (next begin_section or finish).
class TableSink final : public ResultSink {
 public:
  explicit TableSink(std::ostream& os) : os_(os) {}

  void begin_section(const std::string& name,
                     const std::vector<std::string>& headers) override;
  void add_row(const std::vector<std::string>& cells) override;
  void finish() override;

 private:
  void flush_section();
  std::ostream& os_;
  std::string section_;
  std::optional<TablePrinter> table_;
};

/// Writes every section into one CSV file.  A leading `section` column
/// is added as soon as any section has a name (unnamed-only files stay a
/// plain CSV of the bench's own columns); the header row is (re)written
/// at the start of the file and again whenever a new section changes the
/// column set, so single-schema benches produce a one-header CSV.
class CsvSink final : public ResultSink {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit CsvSink(const std::string& path);

  void begin_section(const std::string& name,
                     const std::vector<std::string>& headers) override;
  void add_row(const std::vector<std::string>& cells) override;
  void finish() override;

 private:
  std::ofstream out_;
  std::string path_;
  std::string section_;
  std::vector<std::string> headers_;
  bool header_written_ = false;
  bool section_column_ = false;
};

/// Buffers everything and writes one JSON document at finish():
///   {"bench": …, "meta": {…}, "sections":
///     [{"name": …, "headers": […], "rows": [[…], …]}, …]}
/// Cells stay strings (exactly the formatted table cells) so the JSON is
/// a lossless mirror of the printed output.
class JsonSink final : public ResultSink {
 public:
  JsonSink(std::string path, std::string bench_name);

  void begin_section(const std::string& name,
                     const std::vector<std::string>& headers) override;
  void add_row(const std::vector<std::string>& cells) override;
  void finish() override;

  /// Free-form metadata merged into the document's "meta" object.
  void set_meta(const std::string& key, const std::string& value);
  void set_meta_number(const std::string& key, double value);

 private:
  struct Section {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::string path_;
  std::string bench_name_;
  /// key → pre-serialized JSON value (quoted string or bare number).
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Section> sections_;
};

/// Owning fan-out composite: forwards every call to each attached sink.
class SinkSet final : public ResultSink {
 public:
  void add(std::unique_ptr<ResultSink> sink);
  [[nodiscard]] std::size_t sink_count() const noexcept {
    return sinks_.size();
  }

  void begin_section(const std::string& name,
                     const std::vector<std::string>& headers) override;
  void add_row(const std::vector<std::string>& cells) override;
  void finish() override;

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

}  // namespace neatbound::exp
