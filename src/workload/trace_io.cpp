#include "workload/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "instance/job_rules.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace osched::workload {

namespace {

/// Appends what std::to_chars(args...) prints.
template <typename... Args>
void append_chars(std::string& out, Args... args) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), args...).ptr);
}

/// Appends `v` as "%.17g" prints it, and +infinity as "inf".
void append_value(std::string& out, double v) {
  if (v >= kTimeInfinity) {
    out += "inf";
  } else {
    append_chars(out, v, std::chars_format::general, 17);
  }
}

// Read sizes: the constructor needs only the header, so the first fill
// (into the still-empty buffer) is small; every later fill reads a block.
constexpr std::size_t kHeaderBlock = std::size_t{4} << 10;
constexpr std::size_t kBlock = std::size_t{64} << 10;

std::optional<double> parse_value(std::string_view s) {
  double v = 0.0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec == std::errc() && ptr == last && !std::isnan(v)) return v;
  // The strtod fallback keeps the accepted grammar and NaN payloads.
  const std::string text(s);
  char* end = nullptr;
  v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return v;
}

/// A machine count or id: decimal digits only. Values past uint64 saturate,
/// so they fail every range check downstream.
std::optional<std::uint64_t> parse_index(std::string_view s) {
  std::uint64_t v = 0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ptr != last || ec == std::errc::invalid_argument) return std::nullopt;
  if (ec == std::errc::result_out_of_range) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------- writer

TraceStreamWriter::TraceStreamWriter(std::ostream& out,
                                     std::size_t num_machines,
                                     TraceFormat format)
    : out_(out), num_machines_(num_machines), format_(format) {
  util::CsvWriter writer(out_);
  std::vector<std::string> header{"release", "weight", "deadline"};
  if (format_ == TraceFormat::kSparse) {
    // No row spells the machine count out in the sparse dialect, so the
    // header carries it. "eligible:" cannot collide with a dense header,
    // whose fourth column is always "p_0".
    header.push_back("eligible:" + std::to_string(num_machines));
  } else {
    for (std::size_t i = 0; i < num_machines; ++i) {
      header.push_back("p_" + std::to_string(i));
    }
  }
  writer.write_row(header);
}

void TraceStreamWriter::write_job(const StreamJob& job) {
  const bool has_dense = !job.processing.empty();
  OSCHED_CHECK(has_dense || !job.entries.empty())
      << "metadata-only jobs carry no payload to serialize";
  if (has_dense) {
    OSCHED_CHECK_EQ(job.processing.size(), num_machines_)
        << "trace row arity mismatch";
  }
  // No formatted value holds a ',', '"' or line break, so the row needs no
  // CSV quoting and goes out in one write.
  std::string& row = row_;
  row.clear();
  append_value(row, job.release);
  row += ',';
  append_value(row, job.weight);
  row += ',';
  append_value(row, job.deadline);
  row += ',';
  if (format_ == TraceFormat::kSparse) {
    // Eligible entries only, `i:p` pairs — converting a dense payload just
    // drops its infinities. The first pair follows the ',' directly.
    auto append = [&row](MachineId i, Work p) {
      if (row.back() != ',') row += ' ';
      append_chars(row, i);
      row += ':';
      append_value(row, p);
    };
    if (has_dense) {
      for (std::size_t i = 0; i < job.processing.size(); ++i) {
        if (job.processing[i] < kTimeInfinity) {
          append(static_cast<MachineId>(i), job.processing[i]);
        }
      }
    } else {
      for (const SparseEntry& entry : job.entries) {
        OSCHED_CHECK(static_cast<std::size_t>(entry.machine) < num_machines_)
            << "trace row machine id out of range";
        append(entry.machine, entry.p);
      }
    }
  } else {
    // A sparse payload scatters over an all-inf row first.
    std::vector<Work> scattered;
    if (!has_dense) {
      scattered.assign(num_machines_, kTimeInfinity);
      for (const SparseEntry& entry : job.entries) {
        OSCHED_CHECK(static_cast<std::size_t>(entry.machine) < num_machines_)
            << "trace row machine id out of range";
        scattered[static_cast<std::size_t>(entry.machine)] = entry.p;
      }
    }
    for (const Work p : has_dense ? job.processing : scattered) {
      append_value(row, p);
      row += ',';
    }
    row.pop_back();  // the ',' after the last value
  }
  row += '\n';
  out_.write(row.data(), static_cast<std::streamsize>(row.size()));
  ++rows_written_;
}

// ---------------------------------------------------------------- reader

TraceStreamReader::TraceStreamReader(std::istream& in) : in_(in) {
  line_number_ = static_cast<std::size_t>(-1);  // header becomes line 0
  if (!next_row()) {
    if (ok()) fail("empty trace");
    return;
  }
  const std::vector<std::string_view>& header = fields_;
  if (header.size() == 4 && header[3].starts_with("eligible:") &&
      header[0] == "release") {
    // Sparse dialect: the machine count rides in the header field.
    const auto m = parse_index(header[3].substr(9));
    if (!m || *m == 0) {
      fail("bad header (malformed machine count in eligible:<m>)");
      return;
    }
    constexpr auto kMaxMachines =
        static_cast<std::uint64_t>(std::numeric_limits<MachineId>::max());
    if (*m > kMaxMachines) {
      fail("bad header (machine count in eligible:<m> exceeds the machine "
           "id range)");
      return;
    }
    num_machines_ = static_cast<std::size_t>(*m);
    format_ = TraceFormat::kSparse;
    return;
  }
  if (header.size() < 4 || header[0] != "release") {
    fail("bad header (expected release,weight,deadline,p_0,... or "
         "release,weight,deadline,eligible:<m>)");
    return;
  }
  num_machines_ = header.size() - 3;
}

bool TraceStreamReader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
  return false;
}

bool TraceStreamReader::next_line(std::string_view& line) {
  std::size_t scanned = begin_;  // [begin_, scanned) holds no '\n'
  for (;;) {
    const void* newline =
        scanned < end_
            ? std::memchr(buffer_.data() + scanned, '\n', end_ - scanned)
            : nullptr;
    if (newline != nullptr) {
      const auto at =
          static_cast<std::size_t>(static_cast<const char*>(newline) -
                                   buffer_.data());
      line = std::string_view(buffer_.data() + begin_, at - begin_);
      begin_ = at + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      // A last row without a trailing newline.
      line = std::string_view(buffer_.data() + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Slide the partial line to the front and append one more block.
    const std::size_t pending = end_ - begin_;
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, pending);
    }
    begin_ = 0;
    end_ = scanned = pending;
    const std::size_t block = buffer_.empty() ? kHeaderBlock : kBlock;
    if (buffer_.size() < pending + block) buffer_.resize(pending + block);
    in_.read(buffer_.data() + end_, static_cast<std::streamsize>(block));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    eof_ = got < block;  // istream::read comes up short only at the end
  }
}

bool TraceStreamReader::next_data_line(std::string_view& line) {
  if (!ok()) return false;
  while (next_line(line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) return true;  // blank separator lines are tolerated
  }
  return false;  // clean EOF
}

bool TraceStreamReader::split_fields(std::string_view line) {
  fields_.clear();
  if (std::memchr(line.data(), '"', line.size()) != nullptr ||
      std::memchr(line.data(), '\r', line.size()) != nullptr) {
    auto rows = util::parse_csv(line);
    if (!rows.has_value() || rows->size() > 1) return fail("malformed CSV");
    if (rows->empty()) return false;  // only carriage returns: a blank line
    quoted_ = std::move((*rows)[0]);
    if (quoted_.size() == 1 && quoted_[0].empty()) return false;
    fields_.assign(quoted_.begin(), quoted_.end());
    return true;
  }
  const char* field = line.data();
  const char* const last = field + line.size();
  for (;;) {
    const auto* comma = static_cast<const char*>(
        std::memchr(field, ',', static_cast<std::size_t>(last - field)));
    if (comma == nullptr) break;
    fields_.emplace_back(field, static_cast<std::size_t>(comma - field));
    field = comma + 1;
  }
  fields_.emplace_back(field, static_cast<std::size_t>(last - field));
  return true;
}

bool TraceStreamReader::next_row() {
  std::string_view line;
  while (next_data_line(line)) {
    if (split_fields(line)) return true;
  }
  return false;
}

bool TraceStreamReader::parse_dense_row(std::string_view line,
                                        StreamJob& job) const {
  const char* at = line.data();
  const char* const last = at + line.size();
  // One field: from_chars must accept it, read no NaN and stop exactly at
  // the comma that ends the field, or at the end of the line for the last.
  const auto field = [&at, last](double& v, bool last_field) {
    const auto [ptr, ec] = std::from_chars(at, last, v);
    if (ec != std::errc() || std::isnan(v)) return false;
    if (last_field) return ptr == last;
    if (ptr == last || *ptr != ',') return false;
    at = ptr + 1;
    return true;
  };
  job.processing.resize(num_machines_);
  job.entries.clear();
  if (!field(job.release, false) || !field(job.weight, false) ||
      !field(job.deadline, false)) {
    return false;
  }
  Work* const p = job.processing.data();
  const std::size_t m = num_machines_;
  for (std::size_t i = 0; i + 1 < m; ++i) {
    if (!field(p[i], false)) return false;
  }
  return field(p[m - 1], true);
}

std::size_t TraceStreamReader::next_chunk(std::size_t max_jobs,
                                          std::vector<StreamJob>& out) {
  const auto reject = [&](const std::string& what) {
    fail("row " + std::to_string(line_number_) + " " + what);
    out.clear();
    return std::size_t{0};
  };
  const std::size_t arity =
      format_ == TraceFormat::kSparse ? 4 : num_machines_ + 3;
  std::size_t count = 0;
  std::string_view line;
  while (count < max_jobs && next_data_line(line)) {
    // Reuse the storage of the jobs already in `out`, as fill_stream_job
    // does: a steady-state chunk allocates nothing.
    if (count == out.size()) out.emplace_back();
    StreamJob& job = out[count];
    if (format_ == TraceFormat::kDense && parse_dense_row(line, job)) {
      ++count;
      ++rows_read_;
      continue;
    }
    // Everything the single pass does not take whole: split the line and
    // diagnose it field by field.
    if (!split_fields(line)) {
      if (!ok()) break;  // the rows before a malformed line still count
      continue;
    }
    if (fields_.size() != arity) return reject("has wrong arity");
    const auto release = parse_value(fields_[0]);
    const auto weight = parse_value(fields_[1]);
    const auto deadline = parse_value(fields_[2]);
    if (!release || !weight || !deadline) {
      return reject("has non-numeric job fields");
    }
    job.release = *release;
    job.weight = *weight;
    job.deadline = *deadline;
    job.processing.clear();
    job.entries.clear();
    if (format_ == TraceFormat::kSparse) {
      // Space-separated `i:p` pairs. Traces are external input, so the
      // structural demands from_sparse_rows/validate_job would make —
      // in-range, strictly ascending machine ids — are diagnosed here with
      // the row number rather than trusted downstream.
      const std::string_view field = fields_[3];
      MachineId previous = kInvalidMachine;
      std::size_t pos = 0;
      while (pos < field.size()) {
        const std::size_t token_end =
            std::min(field.find(' ', pos), field.size());
        const std::string_view token = field.substr(pos, token_end - pos);
        pos = token_end + 1;
        if (token.empty()) continue;  // tolerate doubled separators
        const std::size_t colon = token.find(':');
        const auto id = colon == 0 || colon == std::string_view::npos
                            ? std::nullopt
                            : parse_index(token.substr(0, colon));
        const auto p =
            id ? parse_value(token.substr(colon + 1)) : std::nullopt;
        if (!p) {
          return reject("has a malformed i:p entry '" + std::string(token) +
                        "'");
        }
        if (*id >= num_machines_) {
          return reject("names machine " + std::to_string(*id) +
                        " but the trace has " + std::to_string(num_machines_) +
                        " machines");
        }
        // The range check above runs on the parsed uint64, before the cast
        // to MachineId could wrap an id past its range; the ascending rule
        // is the shared job rule's.
        const auto machine = static_cast<MachineId>(*id);
        if (!job_rules::sparse_id_ok(machine, previous, num_machines_)) {
          return reject("entries are not strictly ascending by machine");
        }
        previous = machine;
        job.entries.push_back(SparseEntry{machine, *p});
      }
    } else {
      job.processing.resize(num_machines_);
      for (std::size_t i = 0; i < num_machines_; ++i) {
        const auto p = parse_value(fields_[3 + i]);
        if (!p) return reject("has non-numeric p_ij");
        job.processing[i] = *p;
      }
    }
    ++count;
    ++rows_read_;
  }
  out.resize(count);
  return count;
}

// ------------------------------------------------------ whole-file helpers

std::string instance_to_csv(const Instance& instance) {
  std::ostringstream out;
  const TraceFormat format = instance.backend() == StorageBackend::kSparseCsr
                                 ? TraceFormat::kSparse
                                 : TraceFormat::kDense;
  TraceStreamWriter writer(out, instance.num_machines(), format);
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    writer.write_job(job);
  }
  return out.str();
}

namespace {

std::optional<Instance> instance_from_stream(std::istream& in,
                                             std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<Instance> {
    if (error) *error = msg;
    return std::nullopt;
  };
  TraceStreamReader reader(in);
  if (!reader.ok()) return fail(reader.error());

  const std::size_t machines = reader.num_machines();
  const bool sparse = reader.format() == TraceFormat::kSparse;
  std::vector<Job> jobs;
  std::vector<std::vector<Work>> processing(sparse ? 0 : machines);
  std::vector<std::vector<SparseEntry>> rows;
  std::vector<StreamJob> chunk;
  while (reader.next_chunk(4096, chunk) > 0) {
    for (StreamJob& sj : chunk) {
      Job job;
      job.id = static_cast<JobId>(jobs.size());
      job.release = sj.release;
      job.weight = sj.weight;
      job.deadline = sj.deadline;
      jobs.push_back(job);
      if (sparse) {
        rows.push_back(std::move(sj.entries));
      } else {
        for (std::size_t i = 0; i < machines; ++i) {
          processing[i].push_back(sj.processing[i]);
        }
      }
    }
  }
  if (!reader.ok()) return fail(reader.error());

  // The reader already vetted the sparse structural demands (in-range,
  // strictly ascending ids); anything from_sparse_rows still objects to —
  // value problems (non-positive, non-finite, empty rows) — surfaces
  // through validate() exactly as for dense traces.
  Instance instance =
      sparse ? Instance::from_sparse_rows(std::move(jobs), machines,
                                          std::move(rows))
             : Instance(std::move(jobs), std::move(processing));
  const std::string problems = instance.validate();
  if (!problems.empty()) return fail("invalid instance: " + problems);
  return instance;
}

}  // namespace

std::optional<Instance> instance_from_csv(const std::string& text,
                                          std::string* error) {
  std::istringstream in(text);
  return instance_from_stream(in, error);
}

bool save_instance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << instance_to_csv(instance);
  return static_cast<bool>(out);
}

std::optional<Instance> load_instance(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return instance_from_stream(in, error);
}

}  // namespace osched::workload
