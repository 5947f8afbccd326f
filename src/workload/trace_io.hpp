// Instance (trace) serialization — whole-file and chunked-streaming forms.
//
// Two CSV dialects, one job per row, auto-detected by the reader off the
// header:
//
//   DENSE   release,weight,deadline,p_0,p_1,...,p_{m-1}
//           "inf" encodes ineligible machines and absent deadlines.
//   SPARSE  release,weight,deadline,eligible:<m>
//           the fourth column holds the job's ELIGIBLE entries only, as
//           space-separated `i:p` pairs in strictly ascending machine
//           order (e.g. "3:1.5 17:0.25"); the machine count lives in the
//           header since no row spells it out. A restricted-assignment
//           trace at m = 4096 is a few pairs per row instead of >99%
//           literal "inf" tokens.
//
// Both dialects round-trip every double exactly through %.17g formatting
// (the writer prints it with std::to_chars(general, 17), which gives the
// same bytes).
// The dense form is the compatibility dialect — every pre-existing trace
// parses unchanged; the writer picks the sparse form for sparse-CSR
// instances (and on request).
//
// The streaming pair is the production path: TraceStreamReader parses
// rows straight off an std::istream into StreamJob chunks — release order
// ready for SchedulerSession::submit — without ever holding the full CSV
// text or the full instance; TraceStreamWriter appends rows as jobs are
// produced. The whole-file helpers below are thin wrappers over them, so
// there is exactly one parser/formatter for the trace dialect.
//
// Reader mechanics. The reader owns one bounded read-ahead buffer: the
// first fill is a small block (the constructor needs only the header),
// every later one a 64 KiB istream::read. The buffer grows only to hold
// the longest row plus one block. Rows are found with memchr. A dense row
// is then read in one left-to-right pass: std::from_chars parses each
// field in place, and its end pointer must land on the ',' that ends the
// field (on the end of the line for the last one). The pass either takes
// the whole row or hands the line on, unchanged, to the split path: a
// wrong field count, a field from_chars refuses or reads as NaN, or a field
// that does not end at a delimiter (quotes, a stray '\r', a leading '+' or
// blank, hex floats, out-of-range magnitudes). The split path cuts the line
// into string_views on ',' in place (a row holding a '"' or a stray '\r'
// goes through util::parse_csv, so quoting rules live in one place) and
// diagnoses it field by field: arity first, then the job fields, then
// p_ij. Sparse rows always take the split path. Because of the read-ahead,
// the istream's position runs ahead of the last row returned: the reader
// owns the stream until it is done with it.
//
// Numeric grammar. Every value is what strtod reads over the whole field,
// "inf" (+infinity) included. The single pass agrees by construction: ','
// belongs to no float pattern, so a from_chars call over the rest of the
// line that stops exactly at the comma has read the same characters, and
// the same value, as one over the field alone, and from_chars and strtod
// both round correctly. On the split path from_chars parses the common
// case, and anything it refuses — a leading '+' or blank, hex floats,
// magnitudes that overflow to inf or underflow to 0 — or reads as NaN
// falls back to strtod, so every parsed bit is strtod's. Machine counts
// and sparse machine ids are decimal digits only (no sign, no blank).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "instance/instance.hpp"
#include "instance/stream_job.hpp"

namespace osched::workload {

/// The two trace dialects (header comment above). The reader detects the
/// dialect; the writer is told it at construction.
enum class TraceFormat {
  kDense,
  kSparse,
};

/// Incremental, bounded-memory trace writer: emits the header on
/// construction, then one row per write_job call.
class TraceStreamWriter {
 public:
  TraceStreamWriter(std::ostream& out, std::size_t num_machines,
                    TraceFormat format = TraceFormat::kDense);

  /// Appends one row. Accepts either StreamJob payload form (dense row of
  /// num_machines entries, or sparse entries with in-range ascending
  /// machine ids) and converts to the writer's dialect as needed —
  /// metadata-only jobs carry nothing to serialize and abort.
  void write_job(const StreamJob& job);

  std::size_t num_machines() const { return num_machines_; }
  TraceFormat format() const { return format_; }
  std::size_t rows_written() const { return rows_written_; }

 private:
  std::ostream& out_;
  std::size_t num_machines_;
  TraceFormat format_;
  std::size_t rows_written_ = 0;
  std::string row_;  ///< the row being formatted, reused across calls
};

/// Incremental, bounded-memory trace reader: parses the header on
/// construction, then hands out jobs in chunks of bounded size. A malformed
/// trace sets error() (never aborts — traces are external input).
class TraceStreamReader {
 public:
  explicit TraceStreamReader(std::istream& in);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::size_t num_machines() const { return num_machines_; }
  /// The dialect the header announced. Jobs from a sparse trace come back
  /// in the sparse StreamJob payload form (entries), dense traces in the
  /// dense form (processing) — both are accepted by every submission path.
  TraceFormat format() const { return format_; }
  /// Data rows successfully parsed so far.
  std::size_t rows_read() const { return rows_read_; }

  /// Reads up to max_jobs further jobs into `out`, reusing the payload
  /// storage of the StreamJobs already there; `out` is resized to the
  /// count read. Returns out.size(); 0 means end of trace or error —
  /// distinguish with ok().
  std::size_t next_chunk(std::size_t max_jobs, std::vector<StreamJob>& out);

 private:
  bool fail(const std::string& message);
  /// Reads the next row into fields_ (the header); false at EOF/error.
  bool next_row();
  /// The next non-blank line, without its '\n' or a trailing '\r'; false
  /// at end of input or after an error.
  bool next_data_line(std::string_view& line);
  /// Splits `line` into fields_. False for a line that holds no row (one
  /// empty quoted field) and for malformed CSV, which also sets error().
  bool split_fields(std::string_view line);
  /// The single pass over a dense row: parses every field into `job` where
  /// from_chars stops, or returns false to hand the line to split_fields.
  bool parse_dense_row(std::string_view line, StreamJob& job) const;
  /// The next physical line, without its '\n'; false at end of input.
  bool next_line(std::string_view& line);

  std::istream& in_;
  std::string error_;
  std::size_t num_machines_ = 0;
  TraceFormat format_ = TraceFormat::kDense;
  std::size_t rows_read_ = 0;
  std::size_t line_number_ = 0;  ///< physical line index (header = 0)

  std::vector<char> buffer_;  ///< read-ahead window over in_
  std::size_t begin_ = 0;     ///< first unconsumed byte of buffer_
  std::size_t end_ = 0;       ///< one past the last byte read into buffer_
  bool eof_ = false;
  /// The header or a row on the split path: views into buffer_, or into
  /// quoted_ when the row went through util::parse_csv.
  std::vector<std::string_view> fields_;
  std::vector<std::string> quoted_;
};

/// Serializes in the instance's natural dialect: sparse-CSR instances emit
/// the sparse form, dense and generator instances the dense form.
std::string instance_to_csv(const Instance& instance);

/// Returns nullopt (with a message in *error if given) on malformed input.
std::optional<Instance> instance_from_csv(const std::string& text,
                                          std::string* error = nullptr);

/// File convenience wrappers. save returns false on IO failure.
bool save_instance(const Instance& instance, const std::string& path);
std::optional<Instance> load_instance(const std::string& path,
                                      std::string* error = nullptr);

}  // namespace osched::workload
